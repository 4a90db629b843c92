//go:build race

package prf

func init() { raceEnabled = true }
