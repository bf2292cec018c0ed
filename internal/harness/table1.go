package harness

import (
	"fmt"
	"io"

	"krum/attack"
	"krum/internal/core"
	"krum/internal/metrics"
	"krum/internal/vec"
	"krum/scenario"
)

// Table1Cell is one (attack, rule) measurement.
type Table1Cell struct {
	// Attack and Rule identify the cell (canonical registry spec
	// names).
	Attack, Rule string
	// ByzSelectedRate is the fraction of trials in which the rule
	// selected at least one Byzantine proposal.
	ByzSelectedRate float64
}

// Table1Result is the derived selection-quality matrix (T1 in
// EXPERIMENTS.md): every selection rule against every attack, in the
// scenario.Matrix expansion order (rule-major).
type Table1Result struct {
	// N, F document the cluster shape.
	N, F int
	// Cells holds the matrix cells.
	Cells []Table1Cell
}

// table1Matrix declares the T1 grid — every selection rule against
// every attack — as a scenario matrix of registry spec strings.
// DeriveSeeds decorrelates the cells' Monte-Carlo streams.
func table1Matrix(seed uint64) scenario.Matrix {
	return scenario.Matrix{
		Base:  scenario.Spec{Name: "table1", N: 13, F: 3, Seed: seed},
		Rules: []string{"krum", "multikrum(m=4)", "medoid", "minimaldiameter", "bulyan"},
		Attacks: []string{
			"gaussian(sigma=200)",
			"omniscient(scale=20)",
			"signflip",
			"medoidcollusion",
			"mimic",
			"littleisenough",
			"hiddencoord(j=3)",
		},
		DeriveSeeds: true,
	}
}

// RunTable1 measures how often each selection rule picks a Byzantine
// proposal under each attack, at the aggregation level (tight correct
// cluster, unit-scale gradients). The grid comes from table1Matrix;
// each cell runs its own deterministically-seeded Monte-Carlo loop.
func RunTable1(w io.Writer, scale Scale, seed uint64) (*Table1Result, error) {
	const d = 12
	count := pick(scale, 200, 2000)

	m := table1Matrix(seed)
	n, f := m.Base.N, m.Base.F
	res := &Table1Result{N: n, F: f}
	for _, cell := range m.Cells() {
		atk, err := attack.Parse(cell.Attack)
		if err != nil {
			return nil, fmt.Errorf("attack %q: %w", cell.Attack, err)
		}
		rule, err := core.ParseRuleIn(core.SpecContext{N: cell.N, F: cell.F}, cell.Rule)
		if err != nil {
			return nil, fmt.Errorf("rule %q: %w", cell.Rule, err)
		}
		sel, ok := rule.(core.Selector)
		if !ok {
			continue
		}
		hits := 0
		err = trials(vec.NewRNG(cell.Seed), n, f, d, 0.1, atk, count, func(_ []float64, proposals [][]float64) error {
			indices, err := sel.Select(proposals)
			if err != nil {
				return fmt.Errorf("%s under %s: %w", rule.Name(), atk.Name(), err)
			}
			if selectsByzantine(indices, n-f) {
				hits++
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		res.Cells = append(res.Cells, Table1Cell{Attack: atk.Name(), Rule: rule.Name(), ByzSelectedRate: float64(hits) / float64(count)})
	}

	section(w, "T1 — Byzantine-selection rate per (attack × rule)")
	fmt.Fprintf(w, "n = %d, f = %d, %d trials per cell; entries are P[rule selects a Byzantine proposal]\n", n, f, count)
	fmt.Fprintf(w, "(mimic replays honest values — selecting it is harmless, which the table makes visible)\n\n")
	tbl := metrics.NewTable("attack", "rule", "byz selected")
	for _, c := range res.Cells {
		tbl.AddRowf(c.Attack, c.Rule, c.ByzSelectedRate)
	}
	if err := tbl.Render(w); err != nil {
		return nil, err
	}
	return res, nil
}

// Cell returns the named cell, or nil when absent.
func (t *Table1Result) Cell(attackName, ruleName string) *Table1Cell {
	for i := range t.Cells {
		if t.Cells[i].Attack == attackName && t.Cells[i].Rule == ruleName {
			return &t.Cells[i]
		}
	}
	return nil
}
