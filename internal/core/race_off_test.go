//go:build !race

package core

const raceDetectorEnabled = false
