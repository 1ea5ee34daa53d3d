//go:build race

package agent

// raceEnabled: under the race detector sync.Pool drops a quarter of what it
// is given, so budgets that count on a released frame being reused are not
// asserted.
const raceEnabled = true
