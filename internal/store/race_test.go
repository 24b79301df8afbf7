//go:build race

package store

func init() { raceDetector = true }
