package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/power"
)

// Table4 reproduces the logging-cost table: the per-sample cost breakdown
// (41 call + 19 timer + 24 iCount + 18 other = 102 cycles at 1 MHz), the
// 12-byte sample and 800-sample buffer, and the measured impact on the
// canonical 48 s Blink run (paper: 597 entries, 60.71 ms of logging =
// 71.05% of active CPU time but 0.12% of total time, 0.41 mJ).
func Table4(seed uint64) (*Report, error) {
	r := newReport("table4", "Costs of logging")
	w, n, _, err := blinkScenario(seed)
	if err != nil {
		return nil, err
	}
	a, err := analyzeNode(w, n)
	if err != nil {
		return nil, err
	}

	costs := core.DefaultLogCosts()
	entries := n.Trk.Entries()
	logUS := float64(n.Trk.CostCycles()) // 1 cycle = 1 us at 1 MHz
	activeUS := float64(a.ActiveTimeUS(power.ResCPU))
	spanUS := float64(a.Span())

	cpuMW := a.Reg.PowerMW[analysis.Predictor{Res: power.ResCPU, State: power.CPUActive}]
	logEnergyMJ := logUS * (cpuMW + a.Reg.ConstMW) / 1e6 // mW*us -> nJ... (mW*us)/1e3 = uJ; /1e6 = mJ
	totalMJ := a.TotalEnergyUJ() / 1000

	var sb strings.Builder
	fmt.Fprintf(&sb, "%-28s %d samples\n", "Buffer size", core.BufferEntries)
	fmt.Fprintf(&sb, "%-28s %d bytes\n", "Sample size", core.EntrySize)
	fmt.Fprintf(&sb, "%-28s %d cycles @ 1MHz\n", "Cost of logging", costs.Total())
	fmt.Fprintf(&sb, "%-28s %d cycles\n", "  Call overhead", costs.Call)
	fmt.Fprintf(&sb, "%-28s %d cycles\n", "  Read timer", costs.ReadTimer)
	fmt.Fprintf(&sb, "%-28s %d cycles\n", "  Read iCount", costs.ReadICount)
	fmt.Fprintf(&sb, "%-28s %d cycles\n", "  Others", costs.Other)
	fmt.Fprintf(&sb, "\nBlink, 48 s run:\n")
	fmt.Fprintf(&sb, "%-28s %d (paper: 597)\n", "Entries logged", entries)
	fmt.Fprintf(&sb, "%-28s %.2f ms (paper: 60.71 ms)\n", "Time spent logging", logUS/1000)
	fmt.Fprintf(&sb, "%-28s %.2f%% (paper: 71.05%%)\n", "Share of active CPU time", logUS/activeUS*100)
	fmt.Fprintf(&sb, "%-28s %.3f%% (paper: 0.12%%)\n", "Share of total time", logUS/spanUS*100)
	fmt.Fprintf(&sb, "%-28s %.2f mJ (paper: 0.41 mJ)\n", "Energy spent logging", logEnergyMJ)
	fmt.Fprintf(&sb, "%-28s %.2f%% (paper: 0.08%%)\n", "Share of total energy", logEnergyMJ/totalMJ*100)
	fmt.Fprintf(&sb, "%-28s %d bytes\n", "Log RAM if buffered", int(entries)*core.EntrySize)

	r.Text = sb.String()
	r.Values["entries"] = float64(entries)
	r.Values["cost_cycles"] = float64(costs.Total())
	r.Values["log_ms"] = logUS / 1000
	r.Values["log_share_active"] = logUS / activeUS
	r.Values["log_share_total"] = logUS / spanUS
	r.Values["log_energy_mJ"] = logEnergyMJ
	return r, nil
}

// instrumentedModules lists, Table 5 style, where this reproduction's
// instrumentation and infrastructure live.
var instrumentedModules = []struct {
	Name string
	Role string
	Dirs []string
}{
	{"Tasks/Timers/Interrupts", "Concurrency + deferral", []string{"internal/kernel"}},
	{"Active Msg.", "Link layer", []string{"internal/am"}},
	{"LEDs", "Device driver", []string{"internal/leds"}},
	{"CC2420 Radio", "Device driver", []string{"internal/radio"}},
	{"SHT11 + Flash", "Sensor + storage drivers", []string{"internal/sensor", "internal/flash"}},
	{"New code", "Quanto infrastructure", []string{"internal/core", "internal/trace", "internal/analysis", "internal/linalg"}},
}

// Table5 reports the size of the instrumented subsystems and the Quanto
// infrastructure in this repository, the analog of the paper's
// lines-of-code accounting (its TinyOS diff was 171+148 modified lines and
// 1275 new lines).
func Table5() (*Report, error) {
	r := newReport("table5", "Instrumentation and infrastructure size (this repository)")
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-26s %-26s %8s %6s\n", "Subsystem", "Role", "LoC", "Files")
	var totalLoc, totalFiles int
	for _, m := range instrumentedModules {
		var loc, files int
		for _, d := range m.Dirs {
			l, f, err := countGoLines(filepath.Join(root, d))
			if err != nil {
				return nil, err
			}
			loc += l
			files += f
		}
		totalLoc += loc
		totalFiles += files
		fmt.Fprintf(&sb, "%-26s %-26s %8d %6d\n", m.Name, m.Role, loc, files)
		key := strings.ToLower(strings.ReplaceAll(strings.Fields(m.Name)[0], "/", "_"))
		r.Values["loc_"+key] = float64(loc)
	}
	fmt.Fprintf(&sb, "%-26s %-26s %8d %6d\n", "Total", "", totalLoc, totalFiles)
	fmt.Fprintf(&sb, "\nPaper: 22 files / 171 lines (core OS) + 16 files / 148 lines (drivers)\n")
	fmt.Fprintf(&sb, "       modified, plus 28 files / 1275 lines of new infrastructure.\n")
	r.Text = sb.String()
	r.Values["total_loc"] = float64(totalLoc)
	r.Values["total_files"] = float64(totalFiles)
	return r, nil
}

// repoRoot locates the module root from this source file's position.
func repoRoot() (string, error) {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		return "", fmt.Errorf("experiments: cannot locate source file")
	}
	// file = <root>/internal/experiments/costs.go
	root := filepath.Dir(filepath.Dir(filepath.Dir(file)))
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		// Fall back to the working directory (e.g. when built elsewhere).
		wd, werr := os.Getwd()
		if werr != nil {
			return "", err
		}
		for dir := wd; ; dir = filepath.Dir(dir) {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return dir, nil
			}
			if dir == filepath.Dir(dir) {
				return "", fmt.Errorf("experiments: go.mod not found from %s", wd)
			}
		}
	}
	return root, nil
}

// countGoLines counts non-test Go source lines (excluding blanks) under dir.
func countGoLines(dir string) (lines, files int, err error) {
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		files++
		for _, ln := range strings.Split(string(data), "\n") {
			if strings.TrimSpace(ln) != "" {
				lines++
			}
		}
		return nil
	})
	return lines, files, err
}
