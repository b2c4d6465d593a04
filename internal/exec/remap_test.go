package exec

import (
	"math"
	"testing"

	"gridpipe/internal/grid"
	"gridpipe/internal/model"
	"gridpipe/internal/trace"
)

// runWithMidwayRemap runs n items, remapping at the given completion
// count, and returns (makespan, executor).
func runWithMidwayRemap(t *testing.T, g *grid.Grid, spec model.PipelineSpec,
	start, target model.Mapping, remapAt float64, proto RemapProtocol, n int) (float64, *Executor, RemapStats) {
	t.Helper()
	eng, e := newExec(t, g, spec, start, Options{MaxInFlight: 8, TotalItems: n})
	var st RemapStats
	eng.Schedule(remapAt, func() {
		var err error
		st, err = e.Remap(target, proto)
		if err != nil {
			t.Errorf("remap: %v", err)
		}
	})
	e.Start()
	for eng.Step() {
	}
	if e.Done() != n {
		t.Fatalf("completed %d of %d", e.Done(), n)
	}
	return eng.Now(), e, st
}

func TestRemapNoopForSameMapping(t *testing.T) {
	g := het(t, 1, 1)
	spec := model.Balanced(2, 0.1, 0)
	_, e := newExec(t, g, spec, model.OneToOne(2), Options{})
	st, err := e.Remap(model.OneToOne(2), DrainSafe)
	if err != nil {
		t.Fatal(err)
	}
	if st.Changed || st.Moved != 0 || st.Killed != 0 {
		t.Fatalf("no-op remap reported %+v", st)
	}
}

func TestRemapRejectsInvalidMapping(t *testing.T) {
	g := het(t, 1, 1)
	spec := model.Balanced(2, 0.1, 0)
	_, e := newExec(t, g, spec, model.OneToOne(2), Options{})
	if _, err := e.Remap(model.FromNodes(0, 9), DrainSafe); err == nil {
		t.Fatal("invalid mapping accepted")
	}
	if _, err := e.Remap(model.FromNodes(0), DrainSafe); err == nil {
		t.Fatal("wrong stage count accepted")
	}
}

func TestRemapAllItemsComplete(t *testing.T) {
	g := het(t, 1, 1, 1)
	spec := model.Balanced(3, 0.1, 1000)
	for _, proto := range []RemapProtocol{DrainSafe, KillRestart} {
		_, e, st := runWithMidwayRemap(t, g, spec,
			model.FromNodes(0, 0, 0), model.OneToOne(3), 2.0, proto, 200)
		if !st.Changed {
			t.Fatalf("%v: remap reported unchanged", proto)
		}
		if e.Done() != 200 || e.InFlight() != 0 {
			t.Fatalf("%v: items lost: done=%d inflight=%d", proto, e.Done(), e.InFlight())
		}
	}
}

func TestRemapEscapingLoadedNodeHelps(t *testing.T) {
	// Node 0 becomes heavily loaded at t=5; moving both stages to
	// node 1 should beat staying.
	mk := func() *grid.Grid {
		g, err := grid.NewGrid(grid.LANLink,
			&grid.Node{Name: "a", Speed: 1, Cores: 1,
				Load: trace.NewSteps(0, trace.StepChange{T: 5, Load: 0.9})},
			&grid.Node{Name: "b", Speed: 1, Cores: 1},
		)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	spec := model.Balanced(2, 0.1, 100)
	const n = 300

	_, eStay := newExec(t, mk(), spec, model.FromNodes(0, 0), Options{MaxInFlight: 8})
	msStay, err := eStay.RunItems(n)
	if err != nil {
		t.Fatal(err)
	}

	msMove, _, _ := runWithMidwayRemap(t, mk(), spec,
		model.FromNodes(0, 0), model.FromNodes(1, 1), 6.0, DrainSafe, n)

	if msMove >= msStay {
		t.Fatalf("remap away from loaded node did not help: stay=%v move=%v", msStay, msMove)
	}
	if msMove > 0.6*msStay {
		t.Fatalf("remap helped too little: stay=%v move=%v", msStay, msMove)
	}
}

func TestDrainSafeNeverKills(t *testing.T) {
	g := het(t, 1, 1, 1)
	spec := model.Balanced(3, 0.2, 1000)
	_, e, st := runWithMidwayRemap(t, g, spec,
		model.FromNodes(0, 0, 0), model.OneToOne(3), 1.0, DrainSafe, 100)
	if st.Killed != 0 || st.RedoneWork != 0 {
		t.Fatalf("drain-safe killed work: %+v", st)
	}
	if e.RedoneWork() != 0 {
		t.Fatalf("executor recorded redone work %v", e.RedoneWork())
	}
}

func TestKillRestartRedoesWork(t *testing.T) {
	// Long service times guarantee something is in service at remap
	// time.
	g := het(t, 1, 1)
	spec := model.Balanced(1, 1.0, 0)
	_, e, st := runWithMidwayRemap(t, g, spec,
		model.FromNodes(0), model.FromNodes(1), 0.5, KillRestart, 20)
	if st.Killed == 0 {
		t.Fatalf("expected kills, got %+v", st)
	}
	if st.RedoneWork <= 0 || e.RedoneWork() != st.RedoneWork {
		t.Fatalf("redone work accounting wrong: %+v vs %v", st, e.RedoneWork())
	}
}

func TestKillRestartSlowerThanDrainSafe(t *testing.T) {
	// With chunky service times, killing in-service items costs real
	// time compared to draining them.
	g := het(t, 1, 1)
	spec := model.Balanced(2, 0.5, 0)
	msDrain, _, _ := runWithMidwayRemap(t, g, spec,
		model.FromNodes(0, 0), model.FromNodes(1, 1), 2.25, DrainSafe, 60)
	msKill, _, stKill := runWithMidwayRemap(t, g, spec,
		model.FromNodes(0, 0), model.FromNodes(1, 1), 2.25, KillRestart, 60)
	if stKill.Killed == 0 {
		t.Skip("nothing was in service at the remap instant")
	}
	if msKill < msDrain-1e-9 {
		t.Fatalf("kill-restart (%v) beat drain-safe (%v)", msKill, msDrain)
	}
}

func TestRemapMovesQueuedItems(t *testing.T) {
	// Single slow node with a deep queue; remapping to the other node
	// must migrate the queued items.
	g := het(t, 1, 1)
	spec := model.Balanced(1, 0.5, 100)
	eng, e := newExec(t, g, spec, model.FromNodes(0), Options{MaxInFlight: 10, TotalItems: 40})
	var st RemapStats
	eng.Schedule(0.6, func() {
		var err error
		st, err = e.Remap(model.FromNodes(1), DrainSafe)
		if err != nil {
			t.Errorf("remap: %v", err)
		}
	})
	e.Start()
	for eng.Step() {
	}
	if st.Moved == 0 {
		t.Fatalf("expected queued items to move, got %+v", st)
	}
	if e.Migrations() != st.Moved {
		t.Fatalf("migration accounting mismatch: %d vs %d", e.Migrations(), st.Moved)
	}
	if e.Done() != 40 {
		t.Fatalf("items lost: %d", e.Done())
	}
}

func TestRemapToReplicatedMapping(t *testing.T) {
	g := het(t, 1, 1, 1)
	spec := model.PipelineSpec{Stages: []model.StageSpec{
		{Name: "light", Work: 0.02},
		{Name: "heavy", Work: 0.2, Replicable: true},
	}}
	start := model.FromNodes(0, 1)
	_, e := newExec(t, g, spec, start, Options{MaxInFlight: 10, TotalItems: 500})
	visits := countServices(e)
	eng := e.eng
	eng.Schedule(2, func() {
		if _, err := e.Remap(start.WithReplicas(1, 1, 2), DrainSafe); err != nil {
			t.Errorf("remap: %v", err)
		}
	})
	e.Start()
	for eng.Step() {
	}
	if e.Done() != 500 {
		t.Fatalf("done = %d", e.Done())
	}
	if visits[1] != 500 {
		t.Fatalf("stage 1 serviced %d items, want 500", visits[1])
	}
	makespan := eng.Now()
	// Unreplicated bound is 0.2 s/item → 100 s for 500 items; the remap
	// at t=2 should land well under that.
	if makespan > 75 {
		t.Fatalf("makespan %v suggests replication never engaged", makespan)
	}
}

func TestRemapThroughputRecovers(t *testing.T) {
	// After remapping to a strictly better mapping, measured throughput
	// over the tail should approach the new mapping's prediction.
	g := het(t, 1, 4)
	spec := model.Balanced(2, 0.2, 0)
	eng, e := newExec(t, g, spec, model.FromNodes(0, 0), Options{MaxInFlight: 8})
	eng.Schedule(10, func() {
		if _, err := e.Remap(model.FromNodes(1, 1), DrainSafe); err != nil {
			t.Errorf("remap: %v", err)
		}
	})
	e.Start()
	done := e.RunUntil(110)
	// Old mapping: 2.5/s. New: 10/s. 10 s at 2.5 + 100 s at 10 ≈ 1025.
	if done < 900 {
		t.Fatalf("done = %d, remap did not recover throughput", done)
	}
	tail := e.Monitor().RecentThroughput(20, 110)
	if math.Abs(tail-10) > 1.5 {
		t.Fatalf("tail throughput = %v, want ~10", tail)
	}
}

func TestProtocolString(t *testing.T) {
	if DrainSafe.String() != "drain-safe" || KillRestart.String() != "kill-restart" {
		t.Fatal("protocol names wrong")
	}
	if RemapProtocol(9).String() == "" {
		t.Fatal("unknown protocol should still render")
	}
}
