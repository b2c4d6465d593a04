package gridpipe

// One testing.B benchmark per experiment in DESIGN.md's index: running
// `go test -bench=.` regenerates every table and figure of the
// reconstructed evaluation suite. Performance numbers come from
// `go run ./benchmark`.

import (
	"testing"

	"gridpipe/internal/bench"
)

// benchExperiment runs one harness experiment per iteration and prints
// its tables once so the benchmark log doubles as the reproduced
// evaluation output.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := bench.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var last *bench.Result
	for i := 0; i < b.N; i++ {
		last = e.Run(42)
	}
	if last != nil {
		b.Log("\n" + last.String())
	}
}

func BenchmarkF1ThroughputTimeline(b *testing.B) { benchExperiment(b, "F1") }
func BenchmarkF2Speedup(b *testing.B)            { benchExperiment(b, "F2") }
func BenchmarkF3PerturbationSweep(b *testing.B)  { benchExperiment(b, "F3") }
func BenchmarkF4Replication(b *testing.B)        { benchExperiment(b, "F4") }
func BenchmarkF5Heterogeneity(b *testing.B)      { benchExperiment(b, "F5") }
func BenchmarkF6StageScalability(b *testing.B)   { benchExperiment(b, "F6") }
func BenchmarkT1Overhead(b *testing.B)           { benchExperiment(b, "T1") }
func BenchmarkT2ModelValidation(b *testing.B)    { benchExperiment(b, "T2") }
func BenchmarkT3Forecasters(b *testing.B)        { benchExperiment(b, "T3") }
func BenchmarkT4MappingSearch(b *testing.B)      { benchExperiment(b, "T4") }
func BenchmarkF7Saturation(b *testing.B)         { benchExperiment(b, "F7") }
func BenchmarkF8DiamondTopology(b *testing.B)    { benchExperiment(b, "F8") }
func BenchmarkF9Churn(b *testing.B)              { benchExperiment(b, "F9") }
func BenchmarkF10ElasticJoin(b *testing.B)       { benchExperiment(b, "F10") }
func BenchmarkF11LiveAdaptivity(b *testing.B)    { benchExperiment(b, "F11") }
func BenchmarkT5LatencyModel(b *testing.B)       { benchExperiment(b, "T5") }
func BenchmarkA1Triggers(b *testing.B)           { benchExperiment(b, "A1") }
func BenchmarkA2RemapProtocol(b *testing.B)      { benchExperiment(b, "A2") }
func BenchmarkA3Hysteresis(b *testing.B)         { benchExperiment(b, "A3") }
