package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"

	"clustersim/internal/core"
	"clustersim/internal/obs"
)

// Stacked-bar rendering for the figures, in the style of the paper's
// normalized-execution-time charts. Each bar is scaled so that 100%
// equals barWidth columns; segments use distinct fills:
//
//	█ cpu   ▒ load stall   ▓ merge stall   ░ sync wait

const barWidth = 50

// RenderBars draws the stacked bars as ASCII art, one row per
// configuration, grouped by application and cache size.
func RenderBars(w io.Writer, bars []Bar) {
	fmt.Fprintf(w, "%-10s %-5s %-4s %-*s %6s\n", "app", "cache", "clus", barWidth+2, "", "total")
	prevGroup := ""
	for _, b := range bars {
		group := b.App + obs.CacheLabel(b.CacheKB)
		if prevGroup != "" && group != prevGroup {
			fmt.Fprintln(w)
		}
		prevGroup = group
		fmt.Fprintf(w, "%-10s %-5s %-4s |%s| %6.1f\n",
			b.App, obs.CacheLabel(b.CacheKB), fmt.Sprintf("%dp", b.ClusterSize),
			renderBar(b.NormalizedBar), b.Total)
	}
	fmt.Fprintln(w, "legend: █ cpu  ▒ load  ▓ merge  ░ sync   (bar width 100% =", barWidth, "cols)")
}

// WriteBarsCSV emits figure data as CSV for external plotting:
// app,cache_kb,cluster,total,cpu,load,merge,sync.
func WriteBarsCSV(w io.Writer, bars []Bar) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"app", "cache_kb", "cluster", "total", "cpu", "load", "merge", "sync"}); err != nil {
		return err
	}
	for _, b := range bars {
		rec := []string{
			b.App,
			fmt.Sprintf("%d", b.CacheKB),
			fmt.Sprintf("%d", b.ClusterSize),
			fmt.Sprintf("%.2f", b.Total),
			fmt.Sprintf("%.2f", b.CPU),
			fmt.Sprintf("%.2f", b.Load),
			fmt.Sprintf("%.2f", b.Merge),
			fmt.Sprintf("%.2f", b.Sync),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// renderBar converts one normalized bar into its fill string. Segment
// widths are rounded while preserving the total width, largest-remainder
// style, so the drawn bar length always matches the total.
func renderBar(b core.NormalizedBar) string {
	total := int(b.Total*float64(barWidth)/100 + 0.5)
	if total < 0 {
		total = 0
	}
	segs := []struct {
		val  float64
		fill rune
	}{
		{b.CPU, '█'},
		{b.Load, '▒'},
		{b.Merge, '▓'},
		{b.Sync, '░'},
	}
	var sb strings.Builder
	drawn := 0
	sum := b.CPU + b.Load + b.Merge + b.Sync
	for i, s := range segs {
		var n int
		if sum > 0 {
			n = int(s.val*float64(total)/sum + 0.5)
		}
		if i == len(segs)-1 {
			n = total - drawn // absorb rounding in the last segment
		}
		if n < 0 {
			n = 0
		}
		if drawn+n > total {
			n = total - drawn
		}
		for j := 0; j < n; j++ {
			sb.WriteRune(s.fill)
		}
		drawn += n
	}
	// Pad to a fixed canvas slightly wider than 100% so the >100% bars
	// of slowed-down configurations still fit (count runes, not bytes).
	for drawn < barWidth+10 {
		sb.WriteByte(' ')
		drawn++
	}
	return sb.String()
}
