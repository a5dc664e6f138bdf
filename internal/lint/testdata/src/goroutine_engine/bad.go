// Package enginefix is checked under clustersim/internal/engine: the
// engine runs processors as coroutines, so it too may not spawn.
package enginefix

// Spawn forks a processor goroutine, which not even the engine may do.
func Spawn(ch chan int) {
	go func() { ch <- 1 }() // want:goroutine
}
