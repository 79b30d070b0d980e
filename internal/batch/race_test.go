//go:build race

package batch_test

// raceEnabled reports a -race build, under which sync.Pool drops a random
// share of Puts: allocation bounds that rely on the staging pool are not
// asserted.
const raceEnabled = true
