// Package workload generates the inference request streams driving the
// simulator: arrival processes (Poisson, bursty MMPP, deterministic),
// per-task input difficulty (which controls how deep a multi-exit network
// must run before it is confident), and deadline classes. Everything is
// seeded, so experiments are bit-reproducible.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Task is one inference request.
type Task struct {
	// ID is unique within a trace.
	ID int
	// User is the index of the issuing user/device in the scenario.
	User int
	// Arrival is the request time in virtual seconds.
	Arrival float64
	// Difficulty in [0, 1] controls early-exit behaviour: a task exits at
	// the first attached exit whose confidence power exceeds Difficulty.
	Difficulty float64
	// Deadline is the relative latency SLO in seconds (0 = no deadline).
	Deadline float64
}

// ArrivalKind selects the arrival process.
type ArrivalKind int

const (
	// Poisson arrivals with exponential inter-arrival gaps.
	Poisson ArrivalKind = iota
	// MMPP is a two-state Markov-modulated Poisson process (bursty).
	MMPP
	// Periodic arrivals at fixed spacing (sensor/video-frame style).
	Periodic
)

// String names the arrival kind.
func (k ArrivalKind) String() string {
	switch k {
	case Poisson:
		return "poisson"
	case MMPP:
		return "mmpp"
	case Periodic:
		return "periodic"
	default:
		return fmt.Sprintf("arrivalkind(%d)", int(k))
	}
}

// DifficultyKind selects the per-task difficulty distribution.
type DifficultyKind int

const (
	// UniformDifficulty draws difficulty ~ U[0, 1].
	UniformDifficulty DifficultyKind = iota
	// EasyBiased draws difficulty ~ U^2 (most inputs are easy, matching
	// natural image streams where early exits fire often).
	EasyBiased
	// HardBiased draws difficulty ~ 1 - U^2 (adversarially hard stream).
	HardBiased
	// Bimodal mixes a very easy and a very hard cluster.
	Bimodal
)

// String names the difficulty kind.
func (k DifficultyKind) String() string {
	switch k {
	case UniformDifficulty:
		return "uniform"
	case EasyBiased:
		return "easy-biased"
	case HardBiased:
		return "hard-biased"
	case Bimodal:
		return "bimodal"
	default:
		return fmt.Sprintf("difficultykind(%d)", int(k))
	}
}

// Spec describes one user's request stream.
type Spec struct {
	// User is the issuing user's index.
	User int
	// Rate is the mean arrival rate in requests/second.
	Rate float64
	// Arrivals selects the arrival process.
	Arrivals ArrivalKind
	// BurstFactor is the MMPP high-state rate multiplier (ignored
	// otherwise); the low state runs at Rate/BurstFactor so the long-run
	// mean stays near Rate. Must be > 1 for MMPP.
	BurstFactor float64
	// Difficulty selects the difficulty distribution.
	Difficulty DifficultyKind
	// Deadline is the per-task relative SLO in seconds (0 = none).
	Deadline float64
	// Seed fixes this stream's randomness.
	Seed int64
}

// Generate produces the user's tasks over [0, horizon), sorted by arrival.
func (s Spec) Generate(horizon float64) []Task {
	if s.Rate <= 0 || horizon <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(s.Seed))
	var arrivals []float64
	switch s.Arrivals {
	case Poisson:
		for t := rng.ExpFloat64() / s.Rate; t < horizon; t += rng.ExpFloat64() / s.Rate {
			arrivals = append(arrivals, t)
		}
	case Periodic:
		period := 1 / s.Rate
		// Random phase avoids synchronized waves across users.
		for t := rng.Float64() * period; t < horizon; t += period {
			arrivals = append(arrivals, t)
		}
	case MMPP:
		bf := s.BurstFactor
		if bf <= 1 {
			bf = 4
		}
		// Two states: high rate*bf, low rate/bf; mean dwell 2 s each.
		rates := [2]float64{s.Rate * bf, s.Rate / bf}
		state := rng.Intn(2)
		stateEnd := rng.ExpFloat64() * 2
		t := 0.0
		for t < horizon {
			gap := rng.ExpFloat64() / rates[state]
			t += gap
			for t > stateEnd {
				state = 1 - state
				stateEnd += rng.ExpFloat64() * 2
			}
			if t < horizon {
				arrivals = append(arrivals, t)
			}
		}
	default:
		panic(fmt.Sprintf("workload: unknown arrival kind %v", s.Arrivals))
	}

	tasks := make([]Task, len(arrivals))
	for i, at := range arrivals {
		tasks[i] = Task{
			ID:         i,
			User:       s.User,
			Arrival:    at,
			Difficulty: drawDifficulty(s.Difficulty, rng),
			Deadline:   s.Deadline,
		}
	}
	return tasks
}

func drawDifficulty(k DifficultyKind, rng *rand.Rand) float64 {
	u := rng.Float64()
	switch k {
	case UniformDifficulty:
		return u
	case EasyBiased:
		return u * u
	case HardBiased:
		return 1 - (1-u)*(1-u)
	case Bimodal:
		if rng.Float64() < 0.7 {
			return 0.15 * u
		}
		return 0.8 + 0.2*u
	default:
		panic(fmt.Sprintf("workload: unknown difficulty kind %v", k))
	}
}

// DifficultyCDF returns P[difficulty <= x] analytically for distribution k.
// The surgery planner integrates exit probabilities against this.
func DifficultyCDF(k DifficultyKind, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	switch k {
	case UniformDifficulty:
		return x
	case EasyBiased:
		return math.Sqrt(x)
	case HardBiased:
		return 1 - math.Sqrt(1-x)
	case Bimodal:
		var p float64
		if x < 0.15 {
			p = 0.7 * (x / 0.15)
		} else {
			p = 0.7
		}
		if x >= 0.8 {
			p += 0.3 * ((x - 0.8) / 0.2)
		}
		return p
	default:
		panic(fmt.Sprintf("workload: unknown difficulty kind %v", k))
	}
}

// Merge combines per-user task streams into one arrival-ordered trace and
// renumbers IDs globally.
func Merge(streams ...[]Task) []Task {
	var all []Task
	for _, s := range streams {
		all = append(all, s...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Arrival < all[j].Arrival })
	for i := range all {
		all[i].ID = i
	}
	return all
}
