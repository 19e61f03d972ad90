package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"transched/internal/experiments"
	"transched/internal/model"
)

// modelBenchApp is one application's slice of the BENCH_MODEL.json
// report: fit wall time plus the deterministic quality numbers
// (cross-validated MAPE/R², calibrated sigma, coefficient digests).
type modelBenchApp struct {
	App        string  `json:"app"`
	FitSeconds float64 `json:"fit_seconds"`
	CVMAPECM   float64 `json:"cv_mape_cm"`
	CVMAPECP   float64 `json:"cv_mape_cp"`
	CVR2CM     float64 `json:"cv_r2_cm"`
	CVR2CP     float64 `json:"cv_r2_cp"`
	Sigma      float64 `json:"sigma"`
	DigestCM   string  `json:"digest_cm"`
	DigestCP   string  `json:"digest_cp"`
}

// modelBench is the schema of the -model-bench report (BENCH_MODEL.json).
type modelBench struct {
	Kind                  string          `json:"kind"`
	Apps                  []modelBenchApp `json:"apps"`
	RobustnessCells       int             `json:"robustness_cells"`
	RobustnessSeconds     float64         `json:"robustness_seconds"`
	RobustnessCellsPerSec float64         `json:"robustness_cells_per_sec"`
}

// runRobustness drives the robustness study for both applications and,
// when benchPath is set, writes the timing/quality JSON. All wall-clock
// measurement lives here, in the command: the drivers in
// internal/experiments and internal/model are detclock-clean, and the
// durations below never feed a result.
func runRobustness(cfg experiments.Config, kind, benchPath string) error {
	w := os.Stdout
	bench := modelBench{Kind: kind}
	sweepStart := time.Now()
	for _, app := range []string{"HF", "CCSD"} {
		fmt.Fprintf(w, "==== Robustness: %s heuristic ranking under misprediction ====\n", app)
		res, err := experiments.Robustness(w, app, cfg, experiments.RobustnessOptions{Kind: kind})
		if err != nil {
			return err
		}
		rep := res.Report
		bench.Apps = append(bench.Apps, modelBenchApp{
			App: app,
			// The fit is a small, fixed share of the app's run; what the
			// bench tracks is its wall time, re-measured in isolation so
			// the number means "one FitDurationModel call".
			FitSeconds: timeFit(app, cfg, kind),
			CVMAPECM:   rep.CVCM.MAPE, CVMAPECP: rep.CVCP.MAPE,
			CVR2CM: rep.CVCM.R2, CVR2CP: rep.CVCP.R2,
			Sigma:    rep.Sigma,
			DigestCM: rep.DigestCM, DigestCP: rep.DigestCP,
		})
		bench.RobustnessCells += res.Cells
		fmt.Fprintln(w)
	}
	bench.RobustnessSeconds = time.Since(sweepStart).Seconds()
	if bench.RobustnessSeconds > 0 {
		bench.RobustnessCellsPerSec = float64(bench.RobustnessCells) / bench.RobustnessSeconds
	}
	if benchPath == "" {
		return nil
	}
	data, err := json.MarshalIndent(bench, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(benchPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "experiments: wrote model bench to %s\n", benchPath)
	return nil
}

// timeFit measures one isolated FitDurationModel call.
func timeFit(app string, cfg experiments.Config, kind string) float64 {
	traces, err := experiments.GenerateAnnotatedTraces(app, cfg)
	if err != nil {
		return 0
	}
	start := time.Now()
	if _, _, err := model.FitDurationModel(traces, model.FitOptions{Kind: kind, Seed: cfg.Seed}); err != nil {
		return 0
	}
	return time.Since(start).Seconds()
}
