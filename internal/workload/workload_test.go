package workload

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestPoissonRate(t *testing.T) {
	spec := Spec{User: 0, Rate: 20, Arrivals: Poisson, Seed: 1}
	tasks := spec.Generate(1000)
	got := float64(len(tasks)) / 1000
	if math.Abs(got-20) > 1.5 {
		t.Errorf("empirical rate = %g, want ~20", got)
	}
	if !sort.SliceIsSorted(tasks, func(i, j int) bool { return tasks[i].Arrival < tasks[j].Arrival }) {
		t.Error("arrivals not sorted")
	}
}

func TestPeriodicSpacing(t *testing.T) {
	spec := Spec{User: 0, Rate: 10, Arrivals: Periodic, Seed: 2}
	tasks := spec.Generate(10)
	if len(tasks) < 99 || len(tasks) > 101 {
		t.Fatalf("periodic count = %d, want ~100", len(tasks))
	}
	for i := 1; i < len(tasks); i++ {
		gap := tasks[i].Arrival - tasks[i-1].Arrival
		if math.Abs(gap-0.1) > 1e-9 {
			t.Fatalf("gap %d = %g, want 0.1", i, gap)
		}
	}
}

func TestMMPPBurstier(t *testing.T) {
	// MMPP inter-arrival times must have a higher coefficient of variation
	// than Poisson at the same mean rate.
	cv := func(kind ArrivalKind) float64 {
		spec := Spec{User: 0, Rate: 50, Arrivals: kind, BurstFactor: 6, Seed: 3}
		tasks := spec.Generate(500)
		var gaps []float64
		for i := 1; i < len(tasks); i++ {
			gaps = append(gaps, tasks[i].Arrival-tasks[i-1].Arrival)
		}
		var mean, m2 float64
		for _, g := range gaps {
			mean += g
		}
		mean /= float64(len(gaps))
		for _, g := range gaps {
			m2 += (g - mean) * (g - mean)
		}
		return math.Sqrt(m2/float64(len(gaps))) / mean
	}
	poisson, mmpp := cv(Poisson), cv(MMPP)
	if mmpp <= poisson*1.2 {
		t.Errorf("MMPP CV %.3f not burstier than Poisson CV %.3f", mmpp, poisson)
	}
}

func TestDeterministicSeeding(t *testing.T) {
	a := Spec{User: 1, Rate: 5, Arrivals: Poisson, Seed: 9}.Generate(100)
	b := Spec{User: 1, Rate: 5, Arrivals: Poisson, Seed: 9}.Generate(100)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("task %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := Spec{User: 1, Rate: 5, Arrivals: Poisson, Seed: 10}.Generate(100)
	if len(c) == len(a) && len(a) > 0 && c[0] == a[0] {
		t.Error("different seeds produced identical streams")
	}
}

func TestDifficultyRangesAndMeans(t *testing.T) {
	// The analytic mean of each distribution.
	means := map[DifficultyKind]float64{
		UniformDifficulty: 0.5,
		EasyBiased:        1.0 / 3,
		HardBiased:        2.0 / 3,
		Bimodal:           0.7*0.075 + 0.3*0.9,
	}
	for kind, want := range means {
		spec := Spec{User: 0, Rate: 100, Arrivals: Poisson, Difficulty: kind, Seed: 4}
		tasks := spec.Generate(200)
		var sum float64
		for _, task := range tasks {
			if task.Difficulty < 0 || task.Difficulty > 1 {
				t.Fatalf("%v: difficulty %g out of range", kind, task.Difficulty)
			}
			sum += task.Difficulty
		}
		got := sum / float64(len(tasks))
		if math.Abs(got-want) > 0.03 {
			t.Errorf("%v: empirical mean %g, analytic %g", kind, got, want)
		}
	}
}

func TestDifficultyCDFMatchesSamples(t *testing.T) {
	for _, kind := range []DifficultyKind{UniformDifficulty, EasyBiased, HardBiased, Bimodal} {
		spec := Spec{User: 0, Rate: 200, Arrivals: Poisson, Difficulty: kind, Seed: 5}
		tasks := spec.Generate(200)
		for _, x := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
			var below int
			for _, task := range tasks {
				if task.Difficulty <= x {
					below++
				}
			}
			emp := float64(below) / float64(len(tasks))
			ana := DifficultyCDF(kind, x)
			if math.Abs(emp-ana) > 0.035 {
				t.Errorf("%v: CDF(%g) empirical %.3f vs analytic %.3f", kind, x, emp, ana)
			}
		}
	}
}

func TestDifficultyCDFProperties(t *testing.T) {
	kinds := []DifficultyKind{UniformDifficulty, EasyBiased, HardBiased, Bimodal}
	f := func(a, b uint16, ki uint8) bool {
		k := kinds[int(ki)%len(kinds)]
		x := float64(a) / 65535
		y := float64(b) / 65535
		if x > y {
			x, y = y, x
		}
		cx, cy := DifficultyCDF(k, x), DifficultyCDF(k, y)
		return cx >= 0 && cy <= 1 && cx <= cy+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(6))}); err != nil {
		t.Error(err)
	}
	for _, k := range kinds {
		if DifficultyCDF(k, 0) != 0 || DifficultyCDF(k, 1) != 1 {
			t.Errorf("%v: CDF endpoints %g, %g", k, DifficultyCDF(k, 0), DifficultyCDF(k, 1))
		}
	}
}

func TestGenerateEdgeCases(t *testing.T) {
	if got := (Spec{Rate: 0, Arrivals: Poisson}).Generate(10); got != nil {
		t.Error("zero rate should produce no tasks")
	}
	if got := (Spec{Rate: 5, Arrivals: Poisson}).Generate(0); got != nil {
		t.Error("zero horizon should produce no tasks")
	}
}

func TestKindStrings(t *testing.T) {
	if Poisson.String() == "" || MMPP.String() == "" || Periodic.String() == "" {
		t.Error("empty arrival kind name")
	}
	if UniformDifficulty.String() == "" || Bimodal.String() == "" {
		t.Error("empty difficulty kind name")
	}
}
