package scenarios

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/clock"
	"repro/internal/exp"
	"repro/internal/ppc"
	"repro/internal/rng"
	"repro/internal/telemetry"
)

func surveyEnv(seed int64) *exp.Env {
	sim := clock.NewSim(seed)
	return &exp.Env{Seed: seed, Clock: sim, Metrics: telemetry.NewWithClock(sim)}
}

// PerturbSurvey reuses the process-wide recorded survey and its selection
// set; re-running the baseline per call cost about 220 allocations.
func TestPerturbSurveyAllocs(t *testing.T) {
	env := surveyEnv(1)
	op := PerturbSurvey{FlipProb: 0.2, Stream: "survey"}
	n := testing.AllocsPerRun(50, func() {
		if err := op.Apply(context.Background(), env, &State{}); err != nil {
			t.Fatal(err)
		}
	})
	if n > 170 {
		t.Errorf("PerturbSurvey.Apply allocates %v times, want at most 170", n)
	}
}

// The recorded survey and the retained flate writers are shared by every
// caller in the process. Goroutines running PerturbSurvey and ppc.Compress
// at once must see exactly what a lone caller sees (run under -race).
func TestSharedStateUnderConcurrency(t *testing.T) {
	files := ppc.SyntheticCorpus(6, 6, 1200, rng.New(3))
	opts := ppc.Options{BlockSize: 8 << 10, Workers: 2}
	run := func(g int) (string, error) {
		st := &State{}
		op := PerturbSurvey{FlipProb: 0.1 * float64(g%4), Stream: "survey"}
		if err := op.Apply(context.Background(), surveyEnv(int64(g)), st); err != nil {
			return "", err
		}
		a, err := ppc.Compress(context.Background(), files, ppc.ByName{}, opts)
		if err != nil {
			return "", err
		}
		return fmt.Sprint(st.Obs("survey.checkmarks"), st.Obs("survey.agreement"), a.Blocks), nil
	}
	const goroutines = 8
	want := make([]string, goroutines)
	for g := range want {
		var err error
		if want[g], err = run(g); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]string, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g], errs[g] = run(g)
		}()
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if got[g] != want[g] {
			t.Errorf("goroutine %d diverged from its sequential run", g)
		}
	}
}
