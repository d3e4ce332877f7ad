// Package survey implements the tool-selection survey of Section 3: each
// application provider is asked which of the collected tools they deem
// valuable to improve their workload's execution in a Computing Continuum
// environment. The package models questionnaires, respondents, and vote
// aggregation, and produces the integration matrix behind the paper's
// Table 2 and Figure 4.
//
// Respondents can either replay recorded selections (reproducing the paper's
// data exactly) or act as need-matching agents that pick tools whose
// capability tags satisfy the application's declared needs — the mechanism
// used to sanity-check the recorded votes.
package survey

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/catalog"
	"repro/internal/stats"
)

// Question is the single survey question posed to application providers.
const Question = "Which of the collected tools do you deem valuable to improve " +
	"the execution of your workload in a Computing Continuum environment?"

// Response is one application provider's answer: the set of selected tools.
type Response struct {
	ApplicationID string
	Tools         []string
	Rationale     map[string]string // optional per-tool justification
}

// Respondent produces a Response for an application given the tool catalog.
type Respondent interface {
	Respond(app *catalog.Application, tools []catalog.Tool) (Response, error)
}

// RecordedRespondent replays the selections recorded in the catalog —
// the paper's actual survey data.
type RecordedRespondent struct{}

// Respond returns the application's recorded selections.
func (RecordedRespondent) Respond(app *catalog.Application, tools []catalog.Tool) (Response, error) {
	if app == nil {
		return Response{}, errors.New("survey: nil application")
	}
	return Response{
		ApplicationID: app.ID,
		Tools:         append([]string(nil), app.SelectedTools...),
	}, nil
}

// capabilityTags maps a tool name to the coarse requirement tags it serves.
// Tags mirror Application.Needs. This encoding is the survey recommender's
// knowledge base, distilled from the tool descriptions in Section 2.
var capabilityTags = map[string][]string{
	"BookedSlurm":      {"interactivity"},
	"ICS":              {"interactivity"},
	"Jupyter Workflow": {"interactivity", "hybrid-execution"},
	"TORCH":            {"dynamic-orchestration"},
	"INDIGO":           {"dynamic-orchestration", "federation"},
	"Liqo":             {"federation"},
	"StreamFlow":       {"hybrid-execution", "portability", "dynamic-orchestration"},
	"SPF":              {"sensor-data"},
	"BDMaaS+":          {"placement-optimization", "parallel-simulation"},
	"MoveQUIC":         {"migration"},
	"PESOS":            {"energy", "qos"},
	"Lapegna et al.":   {"energy"},
	"De Lucia et al.":  {"energy", "accelerators"},
	"FastFlow":         {"batch-parallelism", "streaming"},
	"Nethuns":          {"io-performance"},
	"INSANE":           {"io-performance", "qos"},
	"CAPIO":            {"io-performance", "streaming"},
	"BLEST-ML":         {"batch-parallelism"},
	"MLIR":             {"portability", "accelerators"},
	"ParSoDA":          {"batch-parallelism"},
	"MALAGA":           {"batch-parallelism"},
	"aMLLibrary":       {"automl"},
	"WindFlow":         {"streaming", "accelerators"},
	"CHD":              {"sensor-data"},
	"Mingotti et al.":  {"sensor-data"},
}

// CapabilityTags returns the tags for a tool name (nil if unknown). The
// returned slice must not be modified.
func CapabilityTags(tool string) []string { return capabilityTags[tool] }

// NeedMatchingRespondent selects every tool that covers at least one of the
// application's declared needs, up to MaxSelections tools (0 = unlimited),
// preferring tools that cover more needs.
type NeedMatchingRespondent struct {
	MaxSelections int
}

// Respond scores tools by need overlap and returns those with positive score.
func (r NeedMatchingRespondent) Respond(app *catalog.Application, tools []catalog.Tool) (Response, error) {
	if app == nil {
		return Response{}, errors.New("survey: nil application")
	}
	needs := map[string]bool{}
	for _, n := range app.Needs {
		needs[n] = true
	}
	type scored struct {
		name  string
		score int
	}
	var hits []scored
	for _, t := range tools {
		s := 0
		for _, tag := range capabilityTags[t.Name] {
			if needs[tag] {
				s++
			}
		}
		if s > 0 {
			hits = append(hits, scored{t.Name, s})
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].score != hits[j].score {
			return hits[i].score > hits[j].score
		}
		return hits[i].name < hits[j].name
	})
	if r.MaxSelections > 0 && len(hits) > r.MaxSelections {
		hits = hits[:r.MaxSelections]
	}
	resp := Response{ApplicationID: app.ID, Rationale: map[string]string{}}
	for _, h := range hits {
		resp.Tools = append(resp.Tools, h.name)
		resp.Rationale[h.name] = fmt.Sprintf("covers %d declared need(s)", h.score)
	}
	return resp, nil
}

// Survey runs the Section 3 selection survey over a catalog.
type Survey struct {
	Catalog   *catalog.Catalog
	Responses []Response
}

// Run collects one response per application using the given respondent.
func Run(c *catalog.Catalog, r Respondent) (*Survey, error) {
	if c == nil {
		return nil, errors.New("survey: nil catalog")
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	s := &Survey{Catalog: c}
	for i := range c.Applications {
		resp, err := r.Respond(&c.Applications[i], c.Tools)
		if err != nil {
			return nil, fmt.Errorf("survey: application %s: %w", c.Applications[i].ID, err)
		}
		if err := s.validateResponse(resp); err != nil {
			return nil, err
		}
		s.Responses = append(s.Responses, resp)
	}
	return s, nil
}

func (s *Survey) validateResponse(r Response) error {
	if _, err := s.Catalog.Application(r.ApplicationID); err != nil {
		return err
	}
	seen := map[string]bool{}
	for _, t := range r.Tools {
		if _, err := s.Catalog.Tool(t); err != nil {
			return fmt.Errorf("survey: response %s: %w", r.ApplicationID, err)
		}
		if seen[t] {
			return fmt.Errorf("survey: response %s selects %q twice", r.ApplicationID, t)
		}
		seen[t] = true
	}
	return nil
}

// Matrix is the application × tool integration matrix (Table 2).
type Matrix struct {
	ToolNames []string // row order: catalog order (grouped by direction)
	AppIDs    []string // column order: catalog order
	Selected  map[string]map[string]bool
}

// Matrix builds the integration matrix from the survey responses.
func (s *Survey) Matrix() *Matrix {
	m := &Matrix{Selected: map[string]map[string]bool{}}
	for _, t := range s.Catalog.Tools {
		m.ToolNames = append(m.ToolNames, t.Name)
		m.Selected[t.Name] = map[string]bool{}
	}
	for _, a := range s.Catalog.Applications {
		m.AppIDs = append(m.AppIDs, a.ID)
	}
	for _, r := range s.Responses {
		for _, t := range r.Tools {
			m.Selected[t][r.ApplicationID] = true
		}
	}
	return m
}

// Checkmarks returns the total number of selections in the matrix.
func (m *Matrix) Checkmarks() int {
	n := 0
	for _, apps := range m.Selected {
		n += len(apps)
	}
	return n
}

// VotesByTool returns the number of applications that selected each tool.
func (s *Survey) VotesByTool() map[string]int {
	out := map[string]int{}
	for _, r := range s.Responses {
		for _, t := range r.Tools {
			out[t]++
		}
	}
	return out
}

// VotesByDirection aggregates selections per research direction — the
// distribution of Figure 4.
func (s *Survey) VotesByDirection() (*stats.CategoricalDist, error) {
	d := newDirectionDist()
	for _, r := range s.Responses {
		for _, name := range r.Tools {
			tool, err := s.Catalog.Tool(name)
			if err != nil {
				return nil, err
			}
			d.Observe(string(tool.Direction))
		}
	}
	return d, nil
}

// UnselectedTools returns the tools that received no votes, sorted by name
// (the paper's Table 2 shows 9 such rows, e.g. TORCH, SPF, BookedSlurm).
func (s *Survey) UnselectedTools() []string {
	votes := s.VotesByTool()
	var out []string
	for _, t := range s.Catalog.Tools {
		if votes[t.Name] == 0 {
			out = append(out, t.Name)
		}
	}
	sort.Strings(out)
	return out
}

// Agreement compares two surveys over the same catalog and returns the
// Jaccard similarity of their selection sets (1 = identical votes). It is
// used to check the need-matching agent against the recorded selections.
func Agreement(a, b *Survey) (float64, error) {
	if a.Catalog != b.Catalog && a.Catalog.String() != b.Catalog.String() {
		return 0, errors.New("survey: surveys over different catalogs")
	}
	return a.Selections().Jaccard(b.Selections()), nil
}

// selection is one (application, tool) checkmark.
type selection struct{ app, tool string }

// Selections is the set of (application, tool) selections of one survey,
// the operand of Agreement. A caller comparing many surveys against one
// baseline builds the baseline's set once; the set is read-only.
type Selections map[selection]struct{}

// Selections returns the survey's selection set.
func (s *Survey) Selections() Selections {
	n := 0
	for _, r := range s.Responses {
		n += len(r.Tools)
	}
	m := make(Selections, n)
	for _, r := range s.Responses {
		for _, t := range r.Tools {
			m[selection{r.ApplicationID, t}] = struct{}{}
		}
	}
	return m
}

// Jaccard returns |a ∩ b| / |a ∪ b|, or 1 when both sets are empty.
func (a Selections) Jaccard(b Selections) float64 {
	inter := 0
	for p := range a {
		if _, ok := b[p]; ok {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

func newDirectionDist() *stats.CategoricalDist {
	names := make([]string, 0, 5)
	for _, d := range catalog.Directions() {
		names = append(names, string(d))
	}
	return stats.NewCategoricalDist(names...)
}
