//go:build race

package postings

func init() { raceEnabled = true }
