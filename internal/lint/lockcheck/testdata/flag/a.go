// Positive and negative cases for the lockcheck analyzer in an
// ordinary (non-server) package: the lock-discipline rule applies, the
// raw-goroutine rule does not.
package a

import "sync"

type counter struct {
	mu sync.Mutex
	n  int
}

func byPointer(c *counter) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func branchy(c *counter, cond bool) {
	c.mu.Lock() // want "critical section branches"
	if cond {
		c.n++
	}
	c.mu.Unlock()
}

func leaky(c *counter) {
	c.mu.Lock() // want "has no matching Unlock"
	c.n++
}

func straight(c *counter) {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

func goOutsideServer(done chan struct{}) {
	go func() { // goroutine lifecycle is goroutinecheck's concern, not lockcheck's
		done <- struct{}{}
	}()
}
