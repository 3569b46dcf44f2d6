//go:build race

package serve

// raceDetectorEnabled gates allocation assertions: the race detector
// defeats sync.Pool caching, so alloc counts are meaningless under it.
const raceDetectorEnabled = true
