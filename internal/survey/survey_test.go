package survey

import (
	"strings"
	"testing"

	"repro/internal/catalog"
)

func recorded(t *testing.T) *Survey {
	t.Helper()
	s, err := Run(catalog.Default(), RecordedRespondent{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRecordedSurveyMatchesTable2(t *testing.T) {
	s := recorded(t)
	if got := len(s.Responses); got != 10 {
		t.Fatalf("responses = %d, want 10", got)
	}
	m := s.Matrix()
	if got := m.Checkmarks(); got != 28 {
		t.Errorf("checkmarks = %d, want 28", got)
	}
	if len(m.ToolNames) != 25 || len(m.AppIDs) != 10 {
		t.Errorf("matrix shape %dx%d, want 25x10", len(m.ToolNames), len(m.AppIDs))
	}
	// Spot-check cells from the paper's Table 2.
	if !m.Selected["StreamFlow"]["3.3"] {
		t.Error("StreamFlow×3.3 should be checked")
	}
	if !m.Selected["PESOS"]["3.5"] {
		t.Error("PESOS×3.5 should be checked")
	}
	if m.Selected["TORCH"]["3.8"] {
		t.Error("TORCH×3.8 should be empty")
	}
	if m.Selected["PESOS"]["3.1"] {
		t.Error("PESOS×3.1 should be empty")
	}
}

func TestVotesByDirectionIsFig4(t *testing.T) {
	s := recorded(t)
	d, err := s.VotesByDirection()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{
		string(catalog.InteractiveComputing):   4,
		string(catalog.Orchestration):          11,
		string(catalog.EnergyEfficiency):       1,
		string(catalog.PerformancePortability): 6,
		string(catalog.BigDataManagement):      6,
	}
	for dir, n := range want {
		if got := d.Count(dir); got != n {
			t.Errorf("%s votes = %d, want %d", dir, got, n)
		}
	}
	if d.Total() != 28 {
		t.Errorf("total votes = %d, want 28", d.Total())
	}
	// The paper's Q3 observations: orchestration > 39%, energy < 3.6%.
	if share := d.Share(string(catalog.Orchestration)); share <= 0.39 {
		t.Errorf("orchestration share = %v, want > 0.39", share)
	}
	if share := d.Share(string(catalog.EnergyEfficiency)); share >= 0.036 {
		t.Errorf("energy share = %v, want < 0.036", share)
	}
}

func TestVotesByTool(t *testing.T) {
	s := recorded(t)
	votes := s.VotesByTool()
	if votes["StreamFlow"] != 3 {
		t.Errorf("StreamFlow votes = %d, want 3", votes["StreamFlow"])
	}
	if votes["BDMaaS+"] != 2 {
		t.Errorf("BDMaaS+ votes = %d, want 2", votes["BDMaaS+"])
	}
	if votes["TORCH"] != 0 {
		t.Errorf("TORCH votes = %d, want 0", votes["TORCH"])
	}
}

func TestUnselectedTools(t *testing.T) {
	s := recorded(t)
	un := s.UnselectedTools()
	// 25 tools, 16 distinct tools voted for (count distinct in Table 2):
	// ICS, Jupyter Workflow, INDIGO, Liqo, StreamFlow, BDMaaS+, MoveQUIC,
	// PESOS, FastFlow, Nethuns, CAPIO, MLIR, ParSoDA, aMLLibrary, WindFlow,
	// Mingotti et al. → 9 unselected.
	if len(un) != 9 {
		t.Fatalf("unselected = %v (%d), want 9", un, len(un))
	}
	mustContain := []string{"TORCH", "SPF", "BookedSlurm", "MALAGA", "CHD",
		"BLEST-ML", "INSANE", "Lapegna et al.", "De Lucia et al."}
	set := map[string]bool{}
	for _, u := range un {
		set[u] = true
	}
	for _, m := range mustContain {
		if !set[m] {
			t.Errorf("expected %q unselected", m)
		}
	}
}

func TestNeedMatchingRespondent(t *testing.T) {
	c := catalog.Default()
	s, err := Run(c, NeedMatchingRespondent{})
	if err != nil {
		t.Fatal(err)
	}
	// Every application with needs gets at least one recommendation.
	for _, r := range s.Responses {
		app, _ := c.Application(r.ApplicationID)
		if len(app.Needs) > 0 && len(r.Tools) == 0 {
			t.Errorf("app %s (needs %v) got no recommendations", app.ID, app.Needs)
		}
		for _, tool := range r.Tools {
			if r.Rationale[tool] == "" {
				t.Errorf("app %s: tool %s has no rationale", app.ID, tool)
			}
		}
	}
	// The recommender must broadly agree with the recorded survey: the
	// same critical-need signal (orchestration-heavy) should emerge.
	d, err := s.VotesByDirection()
	if err != nil {
		t.Fatal(err)
	}
	top, _ := d.ArgMax()
	if top != string(catalog.Orchestration) {
		t.Errorf("need-matching top direction = %s, want Orchestration", top)
	}
}

func TestNeedMatchingMaxSelections(t *testing.T) {
	c := catalog.Default()
	s, err := Run(c, NeedMatchingRespondent{MaxSelections: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range s.Responses {
		if len(r.Tools) > 2 {
			t.Errorf("app %s got %d selections, cap is 2", r.ApplicationID, len(r.Tools))
		}
	}
}

func TestAgreementBounds(t *testing.T) {
	c := catalog.Default()
	a, _ := Run(c, RecordedRespondent{})
	b, _ := Run(c, RecordedRespondent{})
	sim, err := Agreement(a, b)
	if err != nil || sim != 1 {
		t.Errorf("identical surveys agreement = %v, %v; want 1", sim, err)
	}
	nm, _ := Run(c, NeedMatchingRespondent{})
	sim, err = Agreement(a, nm)
	if err != nil {
		t.Fatal(err)
	}
	if sim <= 0 || sim > 1 {
		t.Errorf("agreement = %v, want in (0,1]", sim)
	}
	// The need-matching agent should recover a substantial share of the
	// recorded votes (the tags were distilled from the same descriptions).
	if sim < 0.4 {
		t.Errorf("agreement with recorded survey = %v, want >= 0.4", sim)
	}
}

func TestRunValidatesResponses(t *testing.T) {
	c := catalog.Default()
	bad := respondentFunc(func(app *catalog.Application, tools []catalog.Tool) (Response, error) {
		return Response{ApplicationID: app.ID, Tools: []string{"NotATool"}}, nil
	})
	if _, err := Run(c, bad); err == nil {
		t.Error("unknown tool in response accepted")
	}
	dup := respondentFunc(func(app *catalog.Application, tools []catalog.Tool) (Response, error) {
		return Response{ApplicationID: app.ID, Tools: []string{"ICS", "ICS"}}, nil
	})
	if _, err := Run(c, dup); err == nil {
		t.Error("duplicate selection accepted")
	}
	if _, err := Run(nil, RecordedRespondent{}); err == nil {
		t.Error("nil catalog accepted")
	}
}

type respondentFunc func(*catalog.Application, []catalog.Tool) (Response, error)

func (f respondentFunc) Respond(a *catalog.Application, t []catalog.Tool) (Response, error) {
	return f(a, t)
}

func TestCapabilityTagsCoverAllTools(t *testing.T) {
	c := catalog.Default()
	for _, tool := range c.Tools {
		if len(CapabilityTags(tool.Name)) == 0 {
			t.Errorf("tool %q has no capability tags", tool.Name)
		}
	}
	if CapabilityTags("nonexistent") != nil {
		t.Error("unknown tool should have nil tags")
	}
}

func TestQuestionText(t *testing.T) {
	if !strings.Contains(Question, "Computing Continuum") {
		t.Error("survey question should reference the Computing Continuum")
	}
}

// Checkmarks counts what the matrix holds without building it, deduping a
// tool named twice for one application — here by two responses.
func TestCheckmarksMatchesMatrix(t *testing.T) {
	s := recorded(t)
	if got, want := s.Checkmarks(), s.Matrix().Checkmarks(); got != want || got != 28 {
		t.Fatalf("recorded survey: Checkmarks = %d, matrix %d, want 28", got, want)
	}
	c := catalog.Default()
	a, b := c.Applications[0].ID, c.Applications[1].ID
	t0, t1, t2 := c.Tools[0].Name, c.Tools[1].Name, c.Tools[2].Name
	dup := &Survey{Catalog: c, Responses: []Response{
		{ApplicationID: a, Tools: []string{t0, t1}},
		{ApplicationID: b, Tools: []string{t1}},
		{ApplicationID: a, Tools: []string{t1, t2}},
	}}
	if got, want := dup.Checkmarks(), dup.Matrix().Checkmarks(); got != want || got != 4 {
		t.Fatalf("duplicate application: Checkmarks = %d, matrix %d, want 4", got, want)
	}
	if n := (&Survey{Catalog: c}).Checkmarks(); n != 0 {
		t.Fatalf("empty survey: Checkmarks = %d, want 0", n)
	}
}
