package experiments

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/report"
)

// The figure results key their values by group (and Figure 6 by size)
// in maps, while the renderers must follow the Groups and Sizes slices.
// Go ranges a map of at most eight keys in insertion order most of the
// time, so the two-group goldens rarely notice a renderer that ranges a
// map. These tests render synthetic results with twelve groups (Figure 6:
// nine sizes), filled in reverse order, and compare every row field by
// field, so a renderer that ranges a map fails on every run.

// renderGroups are the synthetic group names, in the order a figure
// lists them.
var renderGroups = func() []string {
	var gs []string
	for i := 0; i < 12; i++ {
		gs = append(gs, fmt.Sprintf("G%02d", i))
	}
	return gs
}()

// val is a distinct value per (group, column).
func val(gi, col int) float64 { return float64(gi) + float64(col)/100 }

// tableRows returns the fields of every output line that starts with a
// group name, in output order.
func tableRows(out string, groups []string) [][]string {
	var rows [][]string
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) > 0 && slices.Contains(groups, f[0]) {
			rows = append(rows, f)
		}
	}
	return rows
}

// checkRows compares rendered rows with the expected ones.
func checkRows(t *testing.T, name, out string, groups []string, want [][]string) {
	t.Helper()
	got := tableRows(out, groups)
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d:\n%s", name, len(got), len(want), out)
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("%s: row %d = %v, want %v:\n%s", name, i, got[i], want[i], out)
		}
	}
}

// reversed iterates indices last to first, the fill order of every map
// below.
func reversed(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = n - 1 - i
	}
	return idx
}

func TestPolicyFigureRowsFollowGroups(t *testing.T) {
	pols := []core.PolicyKind{core.PolicyICount, core.PolicySTALL, core.PolicyFLUSH, core.PolicyRaT}
	f := &PolicyFigure{Name: "render", Policies: pols, Groups: renderGroups,
		Throughput: map[string]map[core.PolicyKind]float64{}, Fairness: map[string]map[core.PolicyKind]float64{}}
	for _, gi := range reversed(len(renderGroups)) {
		g := renderGroups[gi]
		f.Throughput[g], f.Fairness[g] = map[core.PolicyKind]float64{}, map[core.PolicyKind]float64{}
		for pi, p := range pols {
			f.Throughput[g][p] = val(gi, pi)
			f.Fairness[g][p] = val(gi, 50+pi)
		}
	}
	var want [][]string
	for _, offset := range []int{0, 50} {
		for gi, g := range renderGroups {
			row := []string{g}
			for pi := range pols {
				row = append(row, report.F(val(gi, offset+pi)))
			}
			want = append(want, row)
		}
	}
	checkRows(t, "PolicyFigure", f.String(), renderGroups, want)
}

func TestFig3RowsFollowGroups(t *testing.T) {
	pols := []core.PolicyKind{core.PolicyICount, core.PolicyDCRA, core.PolicyRaT}
	f := &Fig3Result{Groups: renderGroups, Policies: pols, ED2: map[string]map[core.PolicyKind]float64{}}
	for _, gi := range reversed(len(renderGroups)) {
		g := renderGroups[gi]
		f.ED2[g] = map[core.PolicyKind]float64{}
		for pi, p := range pols {
			f.ED2[g][p] = val(gi, pi)
		}
	}
	var want [][]string
	for gi, g := range renderGroups {
		row := []string{g}
		for pi := range pols {
			row = append(row, report.F(val(gi, pi)))
		}
		want = append(want, row)
	}
	checkRows(t, "Fig3", f.String(), renderGroups, want)
}

func TestFig4RowsFollowGroups(t *testing.T) {
	f := &Fig4Result{Groups: renderGroups, Prefetching: map[string]float64{},
		ResourceAvailability: map[string]float64{}, Overhead: map[string]float64{}}
	for _, gi := range reversed(len(renderGroups)) {
		g := renderGroups[gi]
		f.Prefetching[g], f.ResourceAvailability[g], f.Overhead[g] = val(gi, 1), val(gi, 2), val(gi, 3)
	}
	var want [][]string
	for gi, g := range renderGroups {
		want = append(want, []string{g, report.Pct(val(gi, 1)), report.Pct(val(gi, 2)), report.Pct(val(gi, 3))})
	}
	checkRows(t, "Fig4", f.String(), renderGroups, want)
}

func TestFig5RowsFollowGroups(t *testing.T) {
	f := &Fig5Result{Groups: renderGroups, Normal: map[string]float64{}, Runahead: map[string]float64{}}
	for _, gi := range reversed(len(renderGroups)) {
		g := renderGroups[gi]
		f.Normal[g], f.Runahead[g] = val(gi, 1), val(gi, 2)
	}
	var want [][]string
	for gi, g := range renderGroups {
		want = append(want, []string{g, report.F(val(gi, 1)), report.F(val(gi, 2))})
	}
	checkRows(t, "Fig5", f.String(), renderGroups, want)
}

func TestFig6ColumnsFollowSizes(t *testing.T) {
	groups := renderGroups[:3]
	sizes := []int{64, 96, 128, 160, 192, 224, 256, 288, 320}
	f := &Fig6Result{Groups: groups, Sizes: sizes, Throughput: map[string]map[int]map[core.PolicyKind]float64{}}
	for _, gi := range reversed(len(groups)) {
		g := groups[gi]
		f.Throughput[g] = map[int]map[core.PolicyKind]float64{}
		for _, si := range reversed(len(sizes)) {
			f.Throughput[g][sizes[si]] = map[core.PolicyKind]float64{
				core.PolicyFLUSH: val(gi, 2*si),
				core.PolicyRaT:   val(gi, 2*si+1),
			}
		}
	}
	var want [][]string
	for gi, g := range groups {
		row := []string{g}
		for si := range sizes {
			row = append(row, report.F(val(gi, 2*si)), report.F(val(gi, 2*si+1)))
		}
		want = append(want, row)
	}
	out := f.String()
	checkRows(t, "Fig6", out, groups, want)
	var header []string
	for _, size := range sizes {
		header = append(header, fmt.Sprintf("FLUSH@%d", size), fmt.Sprintf("RaT@%d", size))
	}
	if h := tableRows(out, []string{"workload"}); len(h) != 1 || !slices.Equal(h[0][1:], header) {
		t.Errorf("Fig6 header does not follow Sizes:\n%s", out)
	}
}
