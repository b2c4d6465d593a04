package bench

// Parallel-scaling sweep for the partitioned simulation core: a
// 10k-node, 16-tenant synthetic workload driven through
// sim.ParallelEngine across partition and GOMAXPROCS counts, reporting
// events/s per point. Every sweep point also checks its completion
// digest against the single-partition golden run, so the scaling
// numbers double as a determinism property check.

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"gridpipe/internal/rng"
	"gridpipe/internal/sim"
)

// ParallelPoint is one measurement of the scaling sweep: the synthetic
// multi-tenant run at a (partition count, GOMAXPROCS) combination.
type ParallelPoint struct {
	Parts        int     `json:"parts"`
	Procs        int     `json:"procs"`
	Events       uint64  `json:"events"`
	WallSeconds  float64 `json:"wall_s"`
	EventsPerSec float64 `json:"events_per_s"`
	// SpeedupVs1 is events/s relative to the parts=1, procs=1 golden
	// point of the same sweep.
	SpeedupVs1 float64 `json:"speedup_vs_1"`
}

// DefaultParallelParts is the standard partition sweep.
func DefaultParallelParts() []int { return []int{1, 2, 4, 8, 16} }

// DefaultParallelProcs returns the GOMAXPROCS sweep: powers of two up
// to the machine's CPU count ({1} on a single-core box — the sweep
// records what the machine can actually measure).
func DefaultParallelProcs() []int {
	procs := []int{1}
	for p := 2; p <= runtime.NumCPU(); p *= 2 {
		procs = append(procs, p)
	}
	return procs
}

// --- the synthetic workload ---------------------------------------------

// pnet is the sweep workload: tokens flowing fixed random routes over
// a large node set carved into per-tenant blocks, FCFS service at each
// node (a busy-until accumulator), cross-partition hops carrying at
// least the lookahead of latency. All times are drawn with full
// mantissa entropy from a seeded generator, so the event schedule has
// no ties and the completion digest is bit-reproducible across
// partition and worker counts.
type pnet struct {
	nodes  int
	parts  int
	busy   []float64
	routes [][]int32
	svc    [][]float64
	delay  [][]float64
	start  []float64
	finish []float64
	pe     *sim.ParallelEngine
}

type ptok struct {
	net      *pnet
	job, hop int
}

const pnetLookahead = 0.05

// buildPnet lays out tokens-per-tenant routes inside per-tenant node
// blocks. The route tables depend only on (seed, nodes, tenants,
// tokens, hops) — never on the partition count — so every sweep point
// executes the identical workload; only the partition seams differ.
func buildPnet(seed uint64, nodes, tenants, tokens, hops, parts int) *pnet {
	r := rng.New(seed)
	n := &pnet{
		nodes:  nodes,
		parts:  parts,
		busy:   make([]float64, nodes),
		routes: make([][]int32, tokens),
		svc:    make([][]float64, tokens),
		delay:  make([][]float64, tokens),
		start:  make([]float64, tokens),
		finish: make([]float64, tokens),
	}
	block := nodes / tenants
	for j := 0; j < tokens; j++ {
		t := j % tenants
		n.routes[j] = make([]int32, hops)
		n.svc[j] = make([]float64, hops)
		n.delay[j] = make([]float64, hops)
		for h := 0; h < hops; h++ {
			// Mostly within the tenant's block; ~10% of hops reach an
			// arbitrary node (cross-site transfers), so partition seams
			// carry real exchange traffic at every partition count.
			if r.Float64() < 0.1 {
				n.routes[j][h] = int32(r.Intn(nodes))
			} else {
				n.routes[j][h] = int32(t*block + r.Intn(block))
			}
			n.svc[j][h] = 0.001 + 0.05*r.Float64()
		}
		n.start[j] = r.Float64()
		n.finish[j] = math.NaN()
	}
	// Hop delays are classified by tenant-block seams, not partition
	// seams, so the workload — routes, service times, AND delays — is
	// byte-identical at every partition count. Partition boundaries
	// always coincide with block boundaries (parts divides tenants, see
	// ParallelScaling), so every cross-partition hop is a cross-block
	// hop and carries at least the lookahead, as Send requires.
	dr := rng.New(rng.SeedFor(seed, 1))
	for j := range n.routes {
		for h := 1; h < len(n.routes[j]); h++ {
			f := dr.Float64()
			if int(n.routes[j][h-1])/block != int(n.routes[j][h])/block {
				n.delay[j][h] = pnetLookahead * (1 + f)
			} else {
				n.delay[j][h] = 0.0005 * f
			}
		}
	}
	return n
}

func (n *pnet) partOf(node int32) int { return int(node) * n.parts / n.nodes }

func pnetArrive(arg any) {
	tok := arg.(*ptok)
	n := tok.net
	node := n.routes[tok.job][tok.hop]
	sh := n.pe.Part(n.partOf(node))
	now := sh.Now()
	startSvc := now
	if n.busy[node] > startSvc {
		startSvc = n.busy[node]
	}
	done := startSvc + n.svc[tok.job][tok.hop]
	n.busy[node] = done
	sh.ScheduleArg(done-now, pnetDepart, tok)
}

func pnetDepart(arg any) {
	tok := arg.(*ptok)
	n := tok.net
	from := n.routes[tok.job][tok.hop]
	sh := n.pe.Part(n.partOf(from))
	tok.hop++
	if tok.hop >= len(n.routes[tok.job]) {
		n.finish[tok.job] = sh.Now()
		return
	}
	to := n.routes[tok.job][tok.hop]
	d := n.delay[tok.job][tok.hop]
	if dst := n.partOf(to); dst != n.partOf(from) {
		sh.Send(dst, d, pnetArrive, tok)
		return
	}
	sh.ScheduleArg(d, pnetArrive, tok)
}

// run executes the workload on a fresh partitioned engine and returns
// (events fired, wall-clock, completion digest).
func (n *pnet) run(workers int) (uint64, time.Duration, uint64) {
	n.pe = sim.NewParallel(n.parts, pnetLookahead)
	n.pe.SetWorkers(workers)
	for j := range n.routes {
		tok := &ptok{net: n, job: j}
		n.pe.Part(n.partOf(n.routes[j][0])).AtArg(n.start[j], pnetArrive, tok)
	}
	t0 := time.Now()
	n.pe.Run()
	wall := time.Since(t0)
	h := fnv.New64a()
	var buf [8]byte
	for _, f := range n.finish {
		bits := math.Float64bits(f)
		for i := 0; i < 8; i++ {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	return n.pe.Events(), wall, h.Sum64()
}

// ParallelScaling measures the partitioned engine on the synthetic
// 10k-node, 16-tenant workload across the given partition counts and
// GOMAXPROCS settings. The parts=1, procs=1 golden point always runs
// first (added if absent); every other point's completion digest must
// match its — a sweep is also a determinism property check — and its
// events/s anchors SpeedupVs1.
func ParallelScaling(seed uint64, partsList, procsList []int) ([]ParallelPoint, error) {
	const (
		nodes   = 10000
		tenants = 16
		tokens  = 2000
		hops    = 48
	)
	if len(partsList) == 0 {
		partsList = DefaultParallelParts()
	}
	if len(procsList) == 0 {
		procsList = DefaultParallelProcs()
	}
	for _, parts := range partsList {
		// Partition seams must coincide with tenant-block seams so that
		// every cross-partition hop carries the lookahead (see buildPnet).
		if parts < 1 || parts > tenants || tenants%parts != 0 {
			return nil, fmt.Errorf(
				"bench: parallel sweep partition count %d must divide the workload's %d tenants (valid: 1, 2, 4, 8, 16)",
				parts, tenants)
		}
	}

	measure := func(parts, procs int) (ParallelPoint, uint64) {
		net := buildPnet(seed, nodes, tenants, tokens, hops, parts)
		prev := runtime.GOMAXPROCS(procs)
		events, wall, digest := net.run(0)
		runtime.GOMAXPROCS(prev)
		p := ParallelPoint{
			Parts:       parts,
			Procs:       procs,
			Events:      events,
			WallSeconds: wall.Seconds(),
		}
		if p.WallSeconds > 0 {
			p.EventsPerSec = float64(events) / p.WallSeconds
		}
		return p, digest
	}

	golden, goldenDigest := measure(1, 1)
	golden.SpeedupVs1 = 1
	out := []ParallelPoint{golden}
	for _, parts := range partsList {
		for _, procs := range procsList {
			if parts == 1 && procs == 1 {
				continue
			}
			p, digest := measure(parts, procs)
			if digest != goldenDigest {
				return nil, fmt.Errorf(
					"bench: parallel sweep parts=%d procs=%d: completion digest %x != single-partition golden %x",
					parts, procs, digest, goldenDigest)
			}
			if golden.EventsPerSec > 0 {
				p.SpeedupVs1 = p.EventsPerSec / golden.EventsPerSec
			}
			out = append(out, p)
		}
	}
	return out, nil
}
