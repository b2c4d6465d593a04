//go:build race

package farm

// Set when the test binary is built with -race (see alloc_test.go).
func init() { raceEnabled = true }
