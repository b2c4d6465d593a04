package bench

import "testing"

// TestF12ArbitrationBeatsStaticHalves pins the experiment's acceptance
// criteria: arbitrated adaptive beats the static-halves partition on
// both total makespan and the weighted max-min fairness floor.
func TestF12ArbitrationBeatsStaticHalves(t *testing.T) {
	res := runF12(42)
	sum := res.Tables[1]
	if sum.NumRows() != 3 {
		t.Fatalf("F12 summary rows = %d, want 3", sum.NumRows())
	}
	makespan := tableCol(t, sum, 1)
	minShare := tableCol(t, sum, 2)
	if cellFloat(t, makespan["arbitrated-adaptive"]) >= cellFloat(t, makespan["static-halves"]) {
		t.Fatalf("arbitrated adaptive makespan %s not below static halves %s",
			makespan["arbitrated-adaptive"], makespan["static-halves"])
	}
	if cellFloat(t, minShare["arbitrated-adaptive"]) <= cellFloat(t, minShare["static-halves"]) {
		t.Fatalf("arbitrated adaptive max-min floor %s not above static halves %s",
			minShare["arbitrated-adaptive"], minShare["static-halves"])
	}
	// Plain arbitration (arrival/finish re-division, no adaptive loop)
	// must already beat the static partition on makespan.
	if cellFloat(t, makespan["arbitrated"]) >= cellFloat(t, makespan["static-halves"]) {
		t.Fatalf("arbitrated makespan %s not below static halves %s",
			makespan["arbitrated"], makespan["static-halves"])
	}
}

// TestF13AdmissionSustainsService pins the collapse: over-admission
// must stretch mean job makespan well beyond the queued-admission
// run's, and the queue must still finish every job.
func TestF13AdmissionSustainsService(t *testing.T) {
	res := runF13(42)
	tb := res.Tables[0]
	done := tableCol(t, tb, 1)
	span := tableCol(t, tb, 3)
	jobThr := tableCol(t, tb, 5)
	if cellFloat(t, done["admission-queue"]) != 10 || cellFloat(t, done["over-admission"]) != 10 {
		t.Fatalf("both variants must finish all 10 jobs, got %s/%s",
			done["admission-queue"], done["over-admission"])
	}
	if cellFloat(t, span["over-admission"]) < 2*cellFloat(t, span["admission-queue"]) {
		t.Fatalf("over-admission mean makespan %s not ≥2× the queued %s (no collapse?)",
			span["over-admission"], span["admission-queue"])
	}
	if cellFloat(t, jobThr["admission-queue"]) < 2*cellFloat(t, jobThr["over-admission"]) {
		t.Fatalf("queued per-job throughput %s not ≥2× over-admitted %s",
			jobThr["admission-queue"], jobThr["over-admission"])
	}
}
