package report

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/distrep"
	"repro/internal/measure"
	"repro/internal/stats"
	"repro/internal/viz"
)

// Headline pairs a paper-reported number with our measured value.
type Headline struct {
	Name     string
	Paper    float64 // NaN-free; 0 means the paper gives no number
	Measured float64
}

// Result is one regenerated figure.
type Result struct {
	ID    string
	Title string
	// Text is the rendered terminal figure.
	Text string
	// Rows is the figure's data series (first row is the header).
	Rows [][]string
	// Headlines compare paper-reported numbers with measured ones.
	Headlines []Headline
}

// Options scales the evaluation. The zero value selects paper-faithful
// settings sized for a single-core machine.
type Options struct {
	// Seed drives every model and decoder.
	Seed uint64
	// Samples is the few-run profile size for use case 1 (paper: 10).
	Samples int
	// Bins is the Histogram representation's bin count.
	Bins int
	// ForestTrees / XGBRounds / XGBDepth bound the ensemble sizes.
	ForestTrees, XGBRounds, XGBDepth int
	// SweepSamples lists the Figure 6 sample counts.
	SweepSamples []int
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Samples <= 0 {
		o.Samples = 10
	}
	if o.Bins <= 0 {
		o.Bins = 30
	}
	if o.ForestTrees <= 0 {
		o.ForestTrees = 60
	}
	if o.XGBRounds <= 0 {
		o.XGBRounds = 30
	}
	if o.XGBDepth <= 0 {
		o.XGBDepth = 2
	}
	if len(o.SweepSamples) == 0 {
		o.SweepSamples = []int{1, 2, 3, 5, 10, 25, 50, 100}
	}
	return o
}

func (o Options) modelOptions() core.ModelOptions {
	return core.ModelOptions{
		ForestTrees: o.ForestTrees,
		XGBRounds:   o.XGBRounds,
		XGBDepth:    o.XGBDepth,
	}
}

// intelAMD fetches both systems or fails loudly.
func intelAMD(db *measure.Database) (*measure.SystemData, *measure.SystemData, error) {
	intel, ok := db.System("intel")
	if !ok {
		return nil, nil, fmt.Errorf("report: database lacks the intel system")
	}
	amd, ok := db.System("amd")
	if !ok {
		return nil, nil, fmt.Errorf("report: database lacks the amd system")
	}
	return intel, amd, nil
}

// subsample returns the first n values normalized to their own mean,
// reproducing the paper's "distribution measured from n samples" panels.
func subsample(rel []float64, n int) []float64 {
	if n > len(rel) {
		n = len(rel)
	}
	return stats.Normalize(append([]float64(nil), rel[:n]...))
}

// Fig1 reproduces Figure 1: the SPEC OMP 376 distribution measured from
// 1,000 samples, its unstable appearance from 2/3/5/10 samples, and the
// prediction from 10 samples.
func Fig1(db *measure.Database, opts Options) (*Result, error) {
	o := opts.withDefaults()
	intel, _, err := intelAMD(db)
	if err != nil {
		return nil, err
	}
	const target = "specomp/376"
	b, ok := intel.Find(target)
	if !ok {
		return nil, fmt.Errorf("report: %s missing from campaign", target)
	}
	rel := b.RelTimes()
	var text strings.Builder
	text.WriteString(viz.DensityPlot(rel, 72, 9,
		fmt.Sprintf("(a) measured, %d samples", len(rel))))
	panels := []struct {
		label string
		n     int
	}{{"b", 2}, {"c", 3}, {"d", 5}, {"e", 10}}
	for _, p := range panels {
		text.WriteString("\n")
		text.WriteString(viz.DensityPlot(subsample(rel, p.n), 72, 9,
			fmt.Sprintf("(%s) measured, %d samples", p.label, p.n)))
	}
	pred, actual, err := core.PredictUC1(intel, target, core.UC1Config{
		Rep: distrep.PearsonRnd, Model: core.KNN, NumSamples: o.Samples, Seed: o.Seed,
	})
	if err != nil {
		return nil, err
	}
	text.WriteString("\n")
	text.WriteString(viz.OverlayPlot(actual, pred, 72, 9,
		fmt.Sprintf("(f) predicted from %d samples (PearsonRnd + kNN)", o.Samples)))

	ks := stats.KSStatistic(pred, actual)
	actualModes := stats.NewKDE(actual).CountModes(1024, 0.08)
	predModes := stats.NewKDE(pred).CountModes(1024, 0.08)
	rows := [][]string{{"panel", "samples", "modes"}}
	for _, n := range []int{1000, 2, 3, 5, 10} {
		sub := rel
		if n < 1000 {
			sub = subsample(rel, n)
		}
		m := "-"
		if n >= 5 {
			m = fmt.Sprint(stats.NewKDE(sub).CountModes(1024, 0.08))
		}
		rows = append(rows, []string{"measured", fmt.Sprint(n), m})
	}
	rows = append(rows, []string{"predicted", fmt.Sprint(o.Samples), fmt.Sprint(predModes)})
	return &Result{
		ID:    "fig1",
		Title: "Figure 1: measured and predicted distributions of SPEC OMP 376",
		Text:  text.String(),
		Rows:  rows,
		Headlines: []Headline{
			{Name: "376 measured modes (paper: bimodal)", Paper: 2, Measured: float64(actualModes)},
			{Name: "376 predicted modes (paper: bimodal)", Paper: 2, Measured: float64(predModes)},
			{Name: "376 prediction KS (paper: not reported)", Paper: 0, Measured: ks},
		},
	}, nil
}

// Fig3 reproduces Figure 3: the relative-time distribution of every
// benchmark on the Intel system, demonstrating shape diversity.
func Fig3(db *measure.Database, opts Options) (*Result, error) {
	intel, _, err := intelAMD(db)
	if err != nil {
		return nil, err
	}
	var text strings.Builder
	rows := [][]string{{"benchmark", "std", "skew", "kurt", "modes"}}
	var stds []float64
	multimodal := 0
	ids := make([]string, 0, len(intel.Benchmarks))
	for i := range intel.Benchmarks {
		ids = append(ids, intel.Benchmarks[i].Workload.ID())
	}
	sort.Strings(ids)
	for _, id := range ids {
		b, _ := intel.Find(id)
		rel := b.RelTimes()
		m := stats.ComputeMoments4(rel)
		modes := stats.NewKDE(rel).CountModes(512, 0.1)
		if modes >= 2 {
			multimodal++
		}
		stds = append(stds, m.Std)
		lo, hi := stats.MinMax(rel)
		text.WriteString(fmt.Sprintf("%-26s [%s] std=%.4f modes=%d\n",
			id, viz.Violin(rel, lo, hi, 44), m.Std, modes))
		rows = append(rows, []string{
			id,
			fmt.Sprintf("%.4f", m.Std),
			fmt.Sprintf("%.2f", m.Skew),
			fmt.Sprintf("%.2f", m.Kurt),
			fmt.Sprint(modes),
		})
	}
	minStd, maxStd := stats.MinMax(stds)
	return &Result{
		ID:    "fig3",
		Title: "Figure 3: relative execution time distributions, all benchmarks (Intel)",
		Text:  text.String(),
		Rows:  rows,
		Headlines: []Headline{
			{Name: "benchmarks with multiple modes (paper: several)", Paper: 0, Measured: float64(multimodal)},
			{Name: "narrowest relative std", Paper: 0, Measured: minStd},
			{Name: "widest relative std", Paper: 0, Measured: maxStd},
		},
	}, nil
}

// gridEval evaluates every representation × model combination and
// renders the violin panel shared by Figures 4 and 7.
func gridEval(eval func(rep distrep.Kind, model core.Model) ([]core.BenchScore, error)) (string, [][]string, map[string]float64, error) {
	var text strings.Builder
	rows := [][]string{{"representation", "model", "meanKS", "medianKS", "q1", "q3"}}
	means := map[string]float64{}
	for _, rep := range distrep.Kinds() {
		for _, model := range core.Models() {
			scores, err := eval(rep, model)
			if err != nil {
				return "", nil, nil, fmt.Errorf("%v/%v: %w", rep, model, err)
			}
			ks := core.KSValues(scores)
			label := fmt.Sprintf("%s + %s", rep, model)
			text.WriteString(viz.ViolinRow(label, ks, 0, 1, 40) + "\n")
			v := stats.Summarize(ks)
			means[label] = v.Mean
			rows = append(rows, []string{
				rep.String(), model.String(),
				fmt.Sprintf("%.3f", v.Mean),
				fmt.Sprintf("%.3f", v.Median),
				fmt.Sprintf("%.3f", v.Q1),
				fmt.Sprintf("%.3f", v.Q3),
			})
		}
	}
	return text.String(), rows, means, nil
}

// Fig4 reproduces Figure 4: use case 1 KS violins per representation ×
// model on the Intel system with 10 runs.
func Fig4(db *measure.Database, opts Options) (*Result, error) {
	o := opts.withDefaults()
	intel, _, err := intelAMD(db)
	if err != nil {
		return nil, err
	}
	text, rows, means, err := gridEval(func(rep distrep.Kind, model core.Model) ([]core.BenchScore, error) {
		return core.EvaluateUC1(intel, core.UC1Config{
			Rep: rep, Model: model, NumSamples: o.Samples,
			Bins: o.Bins, Seed: o.Seed, Models: o.modelOptions(),
		})
	})
	if err != nil {
		return nil, err
	}
	// The paper notes kNN's edge over the tree ensembles is "more
	// prominent with a lower number of samples"; quantify that with a
	// 3-sample comparison.
	lowKNN, err := core.EvaluateUC1(intel, core.UC1Config{
		Rep: distrep.PearsonRnd, Model: core.KNN, NumSamples: 3,
		Seed: o.Seed, Models: o.modelOptions(),
	})
	if err != nil {
		return nil, err
	}
	lowRF, err := core.EvaluateUC1(intel, core.UC1Config{
		Rep: distrep.PearsonRnd, Model: core.RandomForest, NumSamples: 3,
		Seed: o.Seed, Models: o.modelOptions(),
	})
	if err != nil {
		return nil, err
	}
	lowGap := stats.Mean(core.KSValues(lowRF)) - stats.Mean(core.KSValues(lowKNN))
	return &Result{
		ID:    "fig4",
		Title: "Figure 4: UC1 KS by representation and model (Intel, 10 runs)",
		Text:  text,
		Rows:  rows,
		Headlines: []Headline{
			{Name: "UC1 PearsonRnd+kNN mean KS", Paper: 0.241, Measured: means["PearsonRnd + kNN"]},
			{Name: "UC1 Histogram best-model mean KS", Paper: 0.278, Measured: minOf(means, "Histogram + ")},
			{Name: "UC1 PyMaxEnt best-model mean KS", Paper: 0.302, Measured: minOf(means, "PyMaxEnt + ")},
			{Name: "UC1 XGBoost (PearsonRnd) mean KS", Paper: 0.247, Measured: means["PearsonRnd + XGBoost"]},
			{Name: "UC1 RF (PearsonRnd) mean KS", Paper: 0.248, Measured: means["PearsonRnd + RF"]},
			{Name: "UC1 RF minus kNN mean KS at 3 samples (paper: kNN edge grows with fewer samples)",
				Paper: 0, Measured: lowGap},
		},
	}, nil
}

func minOf(means map[string]float64, prefix string) float64 {
	best := 1.0
	for k, v := range means {
		if strings.HasPrefix(k, prefix) && v < best {
			best = v
		}
	}
	return best
}

// overlayFigure renders predicted-vs-actual overlays for a benchmark
// selection spanning the KS spectrum.
func overlayFigure(id, title string, selection []string,
	predict func(bench string) (pred, actual []float64, err error)) (*Result, error) {

	var text strings.Builder
	rows := [][]string{{"benchmark", "KS", "actualModes", "predictedModes"}}
	var headlines []Headline
	for _, benchID := range selection {
		pred, actual, err := predict(benchID)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", benchID, err)
		}
		ks := stats.KSStatistic(pred, actual)
		am := stats.NewKDE(actual).CountModes(512, 0.1)
		pm := stats.NewKDE(pred).CountModes(512, 0.1)
		text.WriteString(viz.OverlayPlot(actual, pred, 64, 8,
			fmt.Sprintf("%s  (KS=%.3f)", benchID, ks)))
		text.WriteString("\n")
		rows = append(rows, []string{benchID, fmt.Sprintf("%.3f", ks), fmt.Sprint(am), fmt.Sprint(pm)})
	}
	return &Result{ID: id, Title: title, Text: text.String(), Rows: rows, Headlines: headlines}, nil
}

// Fig5 reproduces Figure 5: UC1 overlays of predicted and actual
// distributions for selected benchmarks (PearsonRnd + kNN, 10 runs).
func Fig5(db *measure.Database, opts Options) (*Result, error) {
	o := opts.withDefaults()
	intel, _, err := intelAMD(db)
	if err != nil {
		return nil, err
	}
	selection := []string{
		"specaccel/359", "specaccel/304", "npb/bt", "rodinia/heartwall",
		"mllib/dtclassifier", "rodinia/ludomp", "specaccel/303",
		"specomp/376", "parboil/mrigridding", "parsec/streamcluster",
	}
	return overlayFigure("fig5",
		"Figure 5: UC1 predicted vs actual overlays (Intel, PearsonRnd + kNN, 10 runs)",
		selection,
		func(bench string) ([]float64, []float64, error) {
			return core.PredictUC1(intel, bench, core.UC1Config{
				Rep: distrep.PearsonRnd, Model: core.KNN,
				NumSamples: o.Samples, Seed: o.Seed,
			})
		})
}

// Fig6 reproduces Figure 6: UC1 KS as a function of the number of runs
// the profile is built from (PearsonRnd + kNN, Intel).
func Fig6(db *measure.Database, opts Options) (*Result, error) {
	o := opts.withDefaults()
	intel, _, err := intelAMD(db)
	if err != nil {
		return nil, err
	}
	var text strings.Builder
	rows := [][]string{{"samples", "meanKS", "medianKS", "q1", "q3"}}
	var means []float64
	for _, n := range o.SweepSamples {
		scores, err := core.EvaluateUC1(intel, core.UC1Config{
			Rep: distrep.PearsonRnd, Model: core.KNN, NumSamples: n, Seed: o.Seed,
		})
		if err != nil {
			return nil, err
		}
		ks := core.KSValues(scores)
		text.WriteString(viz.ViolinRow(fmt.Sprintf("%d samples", n), ks, 0, 1, 40) + "\n")
		v := stats.Summarize(ks)
		means = append(means, v.Mean)
		rows = append(rows, []string{
			fmt.Sprint(n),
			fmt.Sprintf("%.3f", v.Mean),
			fmt.Sprintf("%.3f", v.Median),
			fmt.Sprintf("%.3f", v.Q1),
			fmt.Sprintf("%.3f", v.Q3),
		})
	}
	return &Result{
		ID:    "fig6",
		Title: "Figure 6: UC1 KS vs number of samples (Intel, PearsonRnd + kNN)",
		Text:  text.String(),
		Rows:  rows,
		Headlines: []Headline{
			{Name: "1-sample mean KS minus many-sample mean KS (paper: large positive)",
				Paper: 0, Measured: means[0] - means[len(means)-1]},
		},
	}, nil
}

// Fig7 reproduces Figure 7: use case 2 KS violins per representation ×
// model, measuring on AMD and predicting for Intel.
func Fig7(db *measure.Database, opts Options) (*Result, error) {
	o := opts.withDefaults()
	intel, amd, err := intelAMD(db)
	if err != nil {
		return nil, err
	}
	text, rows, means, err := gridEval(func(rep distrep.Kind, model core.Model) ([]core.BenchScore, error) {
		return core.EvaluateUC2(amd, intel, core.UC2Config{
			Rep: rep, Model: model, Bins: o.Bins, Seed: o.Seed, Models: o.modelOptions(),
		})
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:    "fig7",
		Title: "Figure 7: UC2 KS by representation and model (AMD → Intel)",
		Text:  text,
		Rows:  rows,
		Headlines: []Headline{
			{Name: "UC2 PearsonRnd+kNN mean KS", Paper: 0.236, Measured: means["PearsonRnd + kNN"]},
			{Name: "UC2 Histogram best-model mean KS", Paper: 0.264, Measured: minOf(means, "Histogram + ")},
			{Name: "UC2 PyMaxEnt best-model mean KS", Paper: 0.277, Measured: minOf(means, "PyMaxEnt + ")},
			{Name: "UC2 XGBoost (PearsonRnd) mean KS", Paper: 0.291, Measured: means["PearsonRnd + XGBoost"]},
			{Name: "UC2 RF (PearsonRnd) mean KS", Paper: 0.263, Measured: means["PearsonRnd + RF"]},
		},
	}, nil
}

// Fig8 reproduces Figure 8: use case 2 KS for both prediction
// directions (PearsonRnd + kNN).
func Fig8(db *measure.Database, opts Options) (*Result, error) {
	o := opts.withDefaults()
	intel, amd, err := intelAMD(db)
	if err != nil {
		return nil, err
	}
	var text strings.Builder
	rows := [][]string{{"direction", "meanKS", "medianKS"}}
	var meanA2I, meanI2A float64
	for _, dir := range []struct {
		label    string
		src, dst *measure.SystemData
	}{
		{"AMD → Intel", amd, intel},
		{"Intel → AMD", intel, amd},
	} {
		scores, err := core.EvaluateUC2(dir.src, dir.dst, core.UC2Config{
			Rep: distrep.PearsonRnd, Model: core.KNN, Seed: o.Seed,
		})
		if err != nil {
			return nil, err
		}
		ks := core.KSValues(scores)
		text.WriteString(viz.ViolinRow(dir.label, ks, 0, 1, 40) + "\n")
		v := stats.Summarize(ks)
		if dir.label == "AMD → Intel" {
			meanA2I = v.Mean
		} else {
			meanI2A = v.Mean
		}
		rows = append(rows, []string{dir.label, fmt.Sprintf("%.3f", v.Mean), fmt.Sprintf("%.3f", v.Median)})
	}
	return &Result{
		ID:    "fig8",
		Title: "Figure 8: UC2 KS by prediction direction (PearsonRnd + kNN)",
		Text:  text.String(),
		Rows:  rows,
		Headlines: []Headline{
			{Name: "Intel→AMD minus AMD→Intel mean KS (paper: slightly positive)",
				Paper: 0, Measured: meanI2A - meanA2I},
		},
	}, nil
}

// Fig9 reproduces Figure 9: UC2 overlays of predicted and actual
// distributions for selected benchmarks (AMD → Intel, PearsonRnd + kNN).
func Fig9(db *measure.Database, opts Options) (*Result, error) {
	o := opts.withDefaults()
	intel, amd, err := intelAMD(db)
	if err != nil {
		return nil, err
	}
	selection := []string{
		"npb/is", "rodinia/heartwall", "parboil/spmv", "parboil/bfs",
		"mllib/gbtclassifier", "parboil/sgemm", "parsec/bodytrack",
		"parsec/canneal", "mllib/correlation", "parboil/histo",
	}
	return overlayFigure("fig9",
		"Figure 9: UC2 predicted vs actual overlays (AMD → Intel, PearsonRnd + kNN)",
		selection,
		func(bench string) ([]float64, []float64, error) {
			return core.PredictUC2(amd, intel, bench, core.UC2Config{
				Rep: distrep.PearsonRnd, Model: core.KNN, Seed: o.Seed,
			})
		})
}

// Figures maps figure IDs to their drivers.
func Figures() map[string]func(*measure.Database, Options) (*Result, error) {
	return map[string]func(*measure.Database, Options) (*Result, error){
		"fig1": Fig1, "fig3": Fig3, "fig4": Fig4, "fig5": Fig5,
		"fig6": Fig6, "fig7": Fig7, "fig8": Fig8, "fig9": Fig9,
	}
}

// FigureIDs lists the figure identifiers in paper order.
func FigureIDs() []string {
	return []string{"fig1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9"}
}

// Render formats one result for the terminal.
func Render(r *Result) string {
	var b strings.Builder
	b.WriteString("=== " + r.Title + " ===\n\n")
	b.WriteString(r.Text)
	b.WriteString("\n")
	b.WriteString(viz.Table(r.Rows))
	if len(r.Headlines) > 0 {
		b.WriteString("\npaper vs measured:\n")
		hr := [][]string{{"quantity", "paper", "measured"}}
		for _, h := range r.Headlines {
			paper := "-"
			if h.Paper != 0 {
				paper = fmt.Sprintf("%.3f", h.Paper)
			}
			hr = append(hr, []string{h.Name, paper, fmt.Sprintf("%.3f", h.Measured)})
		}
		b.WriteString(viz.Table(hr))
	}
	return b.String()
}
