// Package worker exercises goroutinecheck outside server paths: raw
// goroutines must show a lifecycle bound — WaitGroup join, ctx.Done()
// bound, or a channel join handle — whether spawned as a literal or as
// a named function declared in this package.
package worker

import (
	"context"
	"io"
	"sync"
)

func unbound() {
	go func() { // want "raw goroutine without a visible lifecycle bound"
		println("work")
	}()
}

func joined(wg *sync.WaitGroup) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		println("work")
	}()
	wg.Wait()
}

func ctxBound(ctx context.Context) {
	go func() {
		<-ctx.Done()
	}()
}

func handle() <-chan error {
	done := make(chan error, 1)
	go func() {
		done <- nil
	}()
	return done
}

// dispatch spawns a named function: the body of its declaration in this
// package decides whether the spawn is bound.
func dispatch() {
	go loop() // want "raw goroutine without a visible lifecycle bound"
}

func loop() {
	for {
		println("tick")
	}
}

func dispatchBound(ctx context.Context) {
	go watch(ctx)
}

func watch(ctx context.Context) {
	<-ctx.Done()
}

// crossPackage spawns a function declared in another package: its body
// is not in this package's syntax, so no binding can be seen and the
// spawn is flagged.
func crossPackage(dst io.Writer, src io.Reader) {
	go io.Copy(dst, src) // want "raw goroutine without a visible lifecycle bound"
}

var (
	_ = unbound
	_ = joined
	_ = ctxBound
	_ = handle
	_ = dispatch
	_ = dispatchBound
	_ = crossPackage
)
