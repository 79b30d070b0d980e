//go:build race

package cqbound

// raceEnabled reports a -race build, under which sync.Pool drops a random
// share of Puts: allocation bounds that rely on the sink's staging pool
// are not asserted.
const raceEnabled = true
