//go:build race

package bench

func init() { raceDetector = true }
