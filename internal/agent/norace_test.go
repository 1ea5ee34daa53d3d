//go:build !race

package agent

const raceEnabled = false
