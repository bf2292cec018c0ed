package metrics

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func TestTableRenderAlignment(t *testing.T) {
	tbl := NewTable("rule", "accuracy")
	tbl.AddRowf("krum", "0.95")
	tbl.AddRowf("average", "0.12")
	var sb strings.Builder
	if err := tbl.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	// All rows align to equal width.
	if len(lines[0]) != len(lines[2]) || len(lines[2]) != len(lines[3]) {
		t.Errorf("misaligned table:\n%s", out)
	}
	if !strings.Contains(lines[1], "----") {
		t.Error("missing separator")
	}
	if !strings.HasPrefix(lines[2], "krum") {
		t.Errorf("row order wrong:\n%s", out)
	}
}

func TestTableAddRowf(t *testing.T) {
	tbl := NewTable("a", "b", "c")
	tbl.AddRowf(1, 0.123456789, "x")
	var sb strings.Builder
	if err := tbl.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "0.1235") {
		t.Errorf("float not formatted: %s", sb.String())
	}
	tbl2 := NewTable("a")
	tbl2.AddRowf(math.NaN())
	var sb2 strings.Builder
	if err := tbl2.Render(&sb2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb2.String(), "NaN") {
		t.Error("NaN not rendered")
	}
}

func TestTableTooManyCells(t *testing.T) {
	tbl := NewTable("one")
	tbl.AddRowf("a", "b")
	if err := tbl.Render(&strings.Builder{}); !errors.Is(err, ErrBadSeries) {
		t.Errorf("extra cells accepted: %v", err)
	}
}

func TestFigureRender(t *testing.T) {
	f := &Figure{
		Title:  "accuracy vs round",
		XLabel: "round",
		X:      []float64{0, 10, 20},
		Series: []Series{
			{Name: "krum", Y: []float64{0.1, 0.5, 0.9}},
			{Name: "average", Y: []float64{0.1, 0.2, 0.1}},
		},
	}
	var sb strings.Builder
	if err := f.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"# accuracy vs round", "round", "krum", "average", "0.9"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestFigureRenderMismatch(t *testing.T) {
	f := &Figure{
		Title: "bad", XLabel: "x", X: []float64{1, 2},
		Series: []Series{{Name: "s", Y: []float64{1}}},
	}
	if err := f.Render(&strings.Builder{}); !errors.Is(err, ErrBadSeries) {
		t.Errorf("mismatch accepted: %v", err)
	}
}

func TestASCIIChart(t *testing.T) {
	f := &Figure{
		Title:  "demo",
		XLabel: "x",
		X:      []float64{0, 1, 2, 3},
		Series: []Series{{Name: "up", Y: []float64{0, 1, 2, 3}}},
	}
	var sb strings.Builder
	if err := f.ASCIIChart(&sb, 20, 5); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "*") || !strings.Contains(out, "* = up") {
		t.Errorf("chart missing glyphs:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	// Header + 5 grid rows + legend + trailing empty.
	if len(lines) < 7 {
		t.Errorf("chart too short:\n%s", out)
	}
}

func TestASCIIChartErrors(t *testing.T) {
	f := &Figure{Title: "x", XLabel: "x", X: []float64{1}, Series: []Series{{Name: "s", Y: []float64{1}}}}
	if err := f.ASCIIChart(&strings.Builder{}, 2, 1); !errors.Is(err, ErrBadSeries) {
		t.Error("tiny chart accepted")
	}
	bad := &Figure{Title: "x", XLabel: "x", X: []float64{1, 2}, Series: []Series{{Name: "s", Y: []float64{1}}}}
	if err := bad.ASCIIChart(&strings.Builder{}, 20, 4); !errors.Is(err, ErrBadSeries) {
		t.Error("mismatched chart accepted")
	}
	nan := &Figure{Title: "x", XLabel: "x", X: []float64{1}, Series: []Series{{Name: "s", Y: []float64{math.NaN()}}}}
	if err := nan.ASCIIChart(&strings.Builder{}, 20, 4); !errors.Is(err, ErrBadSeries) {
		t.Error("all-NaN chart accepted")
	}
}

func TestASCIIChartFlatSeries(t *testing.T) {
	f := &Figure{
		Title: "flat", XLabel: "x", X: []float64{0, 1},
		Series: []Series{{Name: "s", Y: []float64{2, 2}}},
	}
	var sb strings.Builder
	if err := f.ASCIIChart(&sb, 16, 4); err != nil {
		t.Errorf("flat series: %v", err)
	}
}
