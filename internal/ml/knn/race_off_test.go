//go:build !race

package knn

const raceDetectorEnabled = false
