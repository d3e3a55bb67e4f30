package metricname

import "fix/obs"

// _test.go files are exempt: tests may register throwaway metric names.
func emit(name string) {
	obs.Default().Inc(name)
}
