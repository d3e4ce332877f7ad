package scenarios

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/clock"
	"repro/internal/exp"
	"repro/internal/ppc"
	"repro/internal/rng"
	"repro/internal/survey"
	"repro/internal/telemetry"
)

func surveyEnv(seed int64) *exp.Env {
	sim := clock.NewSim(seed)
	return &exp.Env{Seed: seed, Clock: sim, Metrics: telemetry.NewWithClock(sim)}
}

// PerturbSurvey reuses the process-wide recorded survey and its selection
// set, and counts checkmarks without building the 25-map matrix;
// re-running the baseline per call cost about 220 allocations, the matrix
// about 65 more.
func TestPerturbSurveyAllocs(t *testing.T) {
	env := surveyEnv(1)
	op := PerturbSurvey{FlipProb: 0.2, Stream: "survey"}
	n := testing.AllocsPerRun(50, func() {
		if err := op.Apply(context.Background(), env, &State{}); err != nil {
			t.Fatal(err)
		}
	})
	if n > 100 {
		t.Errorf("PerturbSurvey.Apply allocates %v times, want at most 100", n)
	}
}

// MutateCorpus classifies on the corpus package's pooled shard scratch
// instead of a fresh classifier scratch and description buffer per call:
// the parent allocated 1072–1584 bytes per Apply over this knob range, now
// the generator and the observations take 384. The pin is the least of
// single calls, so a pooled scratch that sync.Pool drops (as it does at
// random under the race detector) cannot trip it.
func TestMutateCorpusAllocBytes(t *testing.T) {
	env := surveyEnv(1)
	for _, op := range []MutateCorpus{
		{N: 64, Overlap: 0.1, Noise: 0, Keywords: 1, Stream: "corpus"},
		{N: 320, Overlap: 0.39, Noise: 24, Keywords: 5, Stream: "corpus"},
	} {
		least := uint64(math.MaxUint64)
		for i := 0; i < 20; i++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			if err := op.Apply(context.Background(), env, &State{}); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&m1)
			least = min(least, m1.TotalAlloc-m0.TotalAlloc)
		}
		if least > 512 {
			t.Errorf("MutateCorpus%+v.Apply allocates %d bytes, want at most 512", op, least)
		}
	}
}

// PerturbSurvey counts checkmarks without the matrix; on perturbed surveys
// across flip probabilities and seeds the count is the matrix's.
func TestPerturbedCheckmarksMatchMatrix(t *testing.T) {
	base, err := recordedSurvey()
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 20; seed++ {
		for _, p := range []float64{0, 0.05, 0.2, 0.4, 1} {
			s, err := survey.Run(base.survey.Catalog, flipRespondent{prob: p, seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := s.Checkmarks(), s.Matrix().Checkmarks(); got != want {
				t.Fatalf("seed %d flip %g: Checkmarks = %d, matrix %d", seed, p, got, want)
			}
		}
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
