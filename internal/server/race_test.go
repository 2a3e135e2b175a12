//go:build race

package server

// raceEnabled reports a -race build, whose sync.Pool drops a quarter of
// the buffers put back on purpose, so allocation counts mean nothing.
const raceEnabled = true
