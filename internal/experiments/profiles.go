package experiments

import (
	"edgesurgeon/internal/dnn"
	"edgesurgeon/internal/hardware"
)

// e1ModelZoo regenerates Table 1: workload model characteristics.
func e1ModelZoo(r *Report) error {
	t := r.table("Model zoo",
		"model", "units", "GFLOPs", "Mparams", "weights(MB)", "input(KB)", "max-act(KB)", "exit-candidates")
	var heaviest, lightest *dnn.Model
	for _, m := range dnn.Zoo() {
		t.AddRow(
			m.Name,
			m.NumUnits(),
			float64(m.TotalFLOPs())/1e9,
			float64(m.TotalParams())/1e6,
			float64(m.ParamBytes())/(1<<20),
			float64(m.InputBytes())/1024,
			float64(m.MaxActivationBytes())/1024,
			len(m.ExitCandidates()),
		)
		if heaviest == nil || m.TotalFLOPs() > heaviest.TotalFLOPs() {
			heaviest = m
		}
		if lightest == nil || m.TotalFLOPs() < lightest.TotalFLOPs() {
			lightest = m
		}
	}
	r.note("heaviest model by compute: %s (%.1f GFLOPs); lightest: %s (%.2f GFLOPs)",
		heaviest.Name, float64(heaviest.TotalFLOPs())/1e9,
		lightest.Name, float64(lightest.TotalFLOPs())/1e9)
	return nil
}

// e2HardwareProfile regenerates Table 2: full-inference latency of every
// zoo model on every hardware class.
func e2HardwareProfile(r *Report) error {
	models := dnn.Zoo()
	headers := []string{"hardware"}
	for _, m := range models {
		headers = append(headers, m.Name)
	}
	t := r.table("Per-model full-inference latency (ms)", headers...)
	for _, p := range hardware.Catalog() {
		row := []any{p.Name}
		for _, m := range models {
			if !p.FitsModel(m) {
				row = append(row, "OOM")
				continue
			}
			row = append(row, p.ModelTime(m)*1000)
		}
		t.AddRow(row...)
	}

	gpu, _ := hardware.ByName("edge-gpu-t4")
	pi, _ := hardware.ByName("rpi4")
	m := dnn.ResNet18()
	r.note("GPU-server/Pi speedup on %s: %.0fx", m.Name, pi.ModelTime(m)/gpu.ModelTime(m))
	return nil
}
