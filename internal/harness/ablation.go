package harness

import (
	"fmt"
	"io"
	"math"

	"krum/attack"
	"krum/internal/core"
	"krum/internal/metrics"
	"krum/internal/vec"
	"krum/scenario"
)

// AblationRow is one rule's behaviour under the hidden-coordinate
// attack.
type AblationRow struct {
	// Rule names the aggregation rule.
	Rule string
	// CoordError is E|output[j] − g[j]| on the attacked coordinate.
	CoordError float64
	// RestError is the mean absolute error over the other coordinates
	// (sanity: all rules should be accurate there).
	RestError float64
	// ByzSelectedRate is the selection rate where applicable (NaN for
	// non-selection rules).
	ByzSelectedRate float64
}

// AblationResult summarizes the extension experiment E6: the
// hidden-coordinate stress test that motivates Bulyan, applied to every
// rule in the repository.
type AblationResult struct {
	// N, F, D document the operating point.
	N, F, D int
	// Rows is one entry per rule.
	Rows []AblationRow
}

// RunAblation executes E6: Monte-Carlo aggregation under
// attack.HiddenCoordinate across all rules, measuring per-coordinate
// damage rather than selection alone. Each cell draws from its own
// derived-seed RNG (DeriveSeeds decorrelates the rules' streams).
func RunAblation(w io.Writer, scale Scale, seed uint64) (*AblationResult, error) {
	const n, f, d = 11, 2, 60 // n ≥ 4f+3 for Bulyan
	const coord = 7
	count := pick(scale, 300, 2000)

	// The rule sweep is a scenario matrix over registry specs; the
	// hidden-coordinate attack is a spec too, so this path contains no
	// hand-rolled attack literal.
	m := scenario.Matrix{
		Base: scenario.Spec{
			N: n, F: f, Seed: seed,
			Attack: fmt.Sprintf("hiddencoord(j=%d,margin=1)", coord),
		},
		Rules: []string{
			"average",
			"krum",
			fmt.Sprintf("multikrum(m=%d)", n-2*f),
			"bulyan",
			"coordmedian",
			"trimmedmean",
			"geomedian",
		},
		DeriveSeeds: true,
	}

	res := &AblationResult{N: n, F: f, D: d}
	out := make([]float64, d)
	for _, cell := range m.Cells() {
		rule, err := core.ParseRuleIn(core.SpecContext{N: cell.N, F: cell.F}, cell.Rule)
		if err != nil {
			return nil, fmt.Errorf("rule %q: %w", cell.Rule, err)
		}
		atk, err := attack.Parse(cell.Attack)
		if err != nil {
			return nil, fmt.Errorf("attack %q: %w", cell.Attack, err)
		}
		var coordErr, restErr float64
		hits := 0
		sel, tracked := rule.(core.Selector)
		err = trials(vec.NewRNG(cell.Seed), n, f, d, 0.3, atk, count, func(g []float64, proposals [][]float64) error {
			if err := rule.Aggregate(out, proposals); err != nil {
				return fmt.Errorf("%s: %w", rule.Name(), err)
			}
			coordErr += math.Abs(out[coord] - g[coord])
			for j := 0; j < d; j++ {
				if j != coord {
					restErr += math.Abs(out[j] - g[j])
				}
			}
			if !tracked {
				return nil
			}
			indices, err := sel.Select(proposals)
			if err != nil {
				return fmt.Errorf("%s select: %w", rule.Name(), err)
			}
			if selectsByzantine(indices, n-f) {
				hits++
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		row := AblationRow{
			Rule:            rule.Name(),
			CoordError:      coordErr / float64(count),
			RestError:       restErr / float64(count*(d-1)),
			ByzSelectedRate: math.NaN(),
		}
		if tracked {
			row.ByzSelectedRate = float64(hits) / float64(count)
		}
		res.Rows = append(res.Rows, row)
	}

	section(w, "E6 (extension) — hidden-coordinate attack: Krum vs Bulyan ablation")
	fmt.Fprintf(w, "n = %d, f = %d, d = %d, attacked coordinate %d, %d trials;\nattackers match the correct mean except for a spike hidden inside Krum's selection radius\n\n",
		n, f, d, coord, count)
	tbl := metrics.NewTable("rule", "attacked-coord error", "other-coord error", "byz selected")
	for _, r := range res.Rows {
		tbl.AddRowf(r.Rule, r.CoordError, r.RestError, r.ByzSelectedRate)
	}
	if err := tbl.Render(w); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "\nKrum may select the stealth proposal (its distance penalty hides in the\nnoise); Bulyan's trimmed second phase bounds the attacked coordinate by\nvalues from correct workers — the follow-up paper's motivation.\n")
	return res, nil
}

// Row returns the named row, or nil.
func (a *AblationResult) Row(rule string) *AblationRow {
	for i := range a.Rows {
		if a.Rows[i].Rule == rule {
			return &a.Rows[i]
		}
	}
	return nil
}
