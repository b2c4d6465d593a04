package model

import (
	"strings"
	"testing"
)

func validJob() JobSpec {
	return JobSpec{Name: "j", Spec: Balanced(2, 0.1, 0), Items: 10}
}

func TestJobSpecValidate(t *testing.T) {
	if err := validJob().Validate(4); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func(*JobSpec)
		want string
	}{
		{"negative weight", func(j *JobSpec) { j.Weight = -1 }, "negative weight"},
		{"negative floor", func(j *JobSpec) { j.FloorNodes = -1 }, "negative floor"},
		{"floor over grid", func(j *JobSpec) { j.FloorNodes = 5 }, "exceeds"},
		{"negative arrival", func(j *JobSpec) { j.Arrival = -1 }, "arrival"},
		{"no items", func(j *JobSpec) { j.Items = 0 }, "item count"},
		{"empty pipeline", func(j *JobSpec) { j.Spec = PipelineSpec{} }, "no stages"},
	}
	for _, tc := range cases {
		j := validJob()
		tc.mut(&j)
		err := j.Validate(4)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err=%v, want containing %q", tc.name, err, tc.want)
		}
	}
}

func TestJobSpecDefaults(t *testing.T) {
	j := JobSpec{}
	if j.NormWeight() != 1 || j.Floor() != 1 {
		t.Fatalf("zero-value defaults: weight=%v floor=%d, want 1/1", j.NormWeight(), j.Floor())
	}
	j.Weight, j.FloorNodes = 2.5, 3
	if j.NormWeight() != 2.5 || j.Floor() != 3 {
		t.Fatalf("explicit values not preserved: %v/%d", j.NormWeight(), j.Floor())
	}
}

func TestCapacityMask(t *testing.T) {
	m := CapacityMask{true, true, true}
	if m.Count() != 3 {
		t.Fatalf("full mask count=%d", m.Count())
	}
	m[1] = false
	if m.Count() != 2 {
		t.Fatalf("after dropping node 1: count=%d", m.Count())
	}
	if got := m.String(); got != "{0,2}" {
		t.Fatalf("String=%q, want {0,2}", got)
	}
}
