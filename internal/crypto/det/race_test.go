//go:build race

package det

func init() { raceEnabled = true }
