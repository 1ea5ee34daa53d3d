package surgery

import (
	"fmt"
	"math"
	"sync"

	"edgesurgeon/internal/dnn"
	"edgesurgeon/internal/hardware"
	"edgesurgeon/internal/workload"
)

// Options controls the surgery optimizer.
type Options struct {
	// MinAccuracy is the expected-accuracy floor a plan must satisfy
	// (0 disables the constraint).
	MinAccuracy float64
	// NoExits restricts surgery to pure partitioning (Neurosurgeon-style
	// baseline behaviour).
	NoExits bool
	// FixedPartition pins the partition point; use FreePartition to let
	// the optimizer sweep it.
	FixedPartition int
}

// FreePartition lets Optimize sweep all partition points.
const FreePartition = -1

// accBuckets quantizes the accuracy dimension of the constrained DP. Rounding
// is downward, so accepted plans genuinely satisfy MinAccuracy.
const accBuckets = 400

// thetaGrid is the confidence-threshold sweep of every surgery problem. 0 is
// the most permissive (every exit fires for the easiest inputs); values near 1
// effectively disable early exits. It is shared and never modified.
var thetaGrid = []float64{0, 0.1, 0.2, 0.3, 0.45, 0.6, 0.8}

// Optimize finds the minimum-expected-latency surgery plan for one user in
// the given environment, subject to the accuracy floor. It sweeps partition
// points and thresholds, and for each solves the exit-subset selection
// exactly (up to accuracy quantization) as a resource-constrained shortest
// path over the exit chain.
func Optimize(m *dnn.Model, env Env, opt Options) (Plan, Eval, error) {
	k, err := newKernel(m, env, opt)
	if err != nil {
		return Plan{}, Eval{}, err
	}
	return k.solve(env.ComputeShare, env.BandwidthShare)
}

// partitionCandidates returns the partition points consistent with device
// and server memory and with the options.
func partitionCandidates(m *dnn.Model, env Env, opt Options) []int {
	n := m.NumUnits()
	var out []int
	lo, hi := 0, n
	if opt.FixedPartition != FreePartition {
		lo, hi = opt.FixedPartition, opt.FixedPartition
	}
	// Prefix parameter bytes and running-max activations are cached on the
	// model, so the sweep below allocates nothing beyond the result slice.
	for p := lo; p <= hi; p++ {
		if p < 0 || p > n {
			continue
		}
		if p > 0 {
			need := m.PrefixParamBytes(p) + 2*m.MaxActBytesThrough(p)
			if need > env.Device.MemBytes {
				continue
			}
		}
		if p < n && env.Server == nil {
			continue
		}
		if p < n && env.Server != nil {
			need := (m.PrefixParamBytes(n) - m.PrefixParamBytes(p)) + 2*m.MaxActivationBytes()
			if need > env.Server.MemBytes {
				continue
			}
		}
		out = append(out, p)
	}
	return out
}

// kernel is the share-independent half of one surgery problem: everything
// Optimize derives from (model, environment, options) that the two allocated
// shares cannot move. It is immutable once built, so any number of goroutines
// may solve against one kernel; what a solve writes lives in pooled scratch.
//
// Nodes index the exit chain: 0 is the source (cut 0), 1..K the interior exit
// candidates ascending, K+1 the backbone's own final exit (cut NumUnits).
type kernel struct {
	m      *dnn.Model
	env    Env // the shares are not read
	opt    Options
	parts  []int     // memory-feasible partition points, ascending
	thetas []float64 // threshold sweep
	cuts   []int     // node -> cut
	// Unit times in two summation orders, both kept bit for bit: the chain DP
	// prices a segment as a difference of prefixes, while the reported Eval
	// adds units up from the segment's start, as hardware.RangeTime (and so
	// Plan.Path, which Evaluate and the simulator share) does.
	devPrefix, srvPrefix []float64 // [k] = time of units [0, k)
	devFrom, srvFrom     []float64 // [i*(NumUnits+1)+j] = RangeTime(m, i, j)
	headDev, headSrv     []float64 // [node] = exit-head time, server at full share
	acc                  []float64 // [node] = accuracy of a prediction made there
	cdf                  []float64 // [ti*len(cuts)+node] = difficulty CDF at the node's confidence power under thetas[ti]
	bits                 []float64 // [p] = bits crossing the link at partition p
	delta                float64   // accuracy per constrained-DP bucket
	scratch              sync.Pool // *scratch sized for this kernel
}

// scratch is what one solve writes.
type scratch struct {
	seg              []float64 // [j*len(cuts)+i] = latency of chain edge i -> j at the current partition and shares
	dist, dpAcc      []float64 // DP latency ([node], or [node*(accBuckets+1)+q] when constrained) and exact path accuracy
	prev             []int32   // DP predecessor, same indexing (constrained: node<<16 | bucket)
	nodes, bestNodes []int     // selected interior exit nodes, ascending
	probs, bestProbs []float64
}

// newKernel validates the problem and builds its share-independent half.
func newKernel(m *dnn.Model, env Env, opt Options) (*kernel, error) {
	if err := env.Validate(); err != nil {
		return nil, err
	}
	n := m.NumUnits()
	k := &kernel{m: m, env: env, opt: opt, thetas: thetaGrid}
	if opt.NoExits {
		k.thetas = k.thetas[:1] // theta is irrelevant without exits
	}
	k.parts = partitionCandidates(m, env, opt)
	if len(k.parts) == 0 {
		return nil, fmt.Errorf("surgery: no feasible partition for %s on %s (memory)", m.Name, env.Device.Name)
	}
	k.cuts = make([]int, 1, len(m.ExitCandidates())+2)
	if !opt.NoExits {
		for _, c := range m.ExitCandidates() {
			if c < n { // exit candidates strictly inside the backbone
				k.cuts = append(k.cuts, c)
			}
		}
	}
	k.cuts = append(k.cuts, n)
	nodes := len(k.cuts)

	k.devPrefix, k.devFrom = unitSums(env.Device, m)
	k.srvPrefix, k.srvFrom = unitSums(env.Server, m)
	k.bits = make([]float64, n+1)
	for p := range k.bits {
		k.bits[p] = float64(m.CutBytes(p)) * 8 * env.txFactor()
	}
	curves := env.Curves.orDefault()
	k.delta = curves.Final / accBuckets
	k.headDev, k.headSrv = make([]float64, nodes), make([]float64, nodes)
	k.acc, k.cdf = make([]float64, nodes), make([]float64, len(k.thetas)*nodes)
	depth := make([]float64, nodes)
	for i := 1; i < nodes-1; i++ {
		hf, _ := headCost(m, k.cuts[i])
		k.headDev[i] = env.Device.FLOPsTime(hf)
		if env.Server != nil {
			k.headSrv[i] = env.Server.FLOPsTime(hf)
		}
		depth[i] = depthFrac(m, k.cuts[i])
		k.acc[i] = curves.Accuracy(depth[i])
	}
	depth[nodes-1], k.acc[nodes-1] = 1, curves.Accuracy(1)
	for ti, theta := range k.thetas {
		for i := 1; i < nodes; i++ {
			k.cdf[ti*nodes+i] = workload.DifficultyCDF(env.Difficulty, curves.Confidence(depth[i], theta))
		}
	}

	cells, constrained := nodes, opt.MinAccuracy > 0
	if constrained {
		cells *= accBuckets + 1
	}
	k.scratch.New = func() any {
		s := &scratch{seg: make([]float64, nodes*nodes), dist: make([]float64, cells), prev: make([]int32, cells),
			nodes: make([]int, 0, nodes), bestNodes: make([]int, 0, nodes),
			probs: make([]float64, 0, nodes), bestProbs: make([]float64, 0, nodes)}
		if constrained {
			s.dpAcc = make([]float64, cells)
		}
		return s
	}
	return k, nil
}

// unitSums returns hw's unit times over m as prefix sums and as sums from
// every start unit; all zero for the absent server of a device-only problem.
func unitSums(hw *hardware.Profile, m *dnn.Model) (prefix, from []float64) {
	n1 := m.NumUnits() + 1
	prefix, from = make([]float64, n1), make([]float64, n1*n1)
	if hw == nil {
		return prefix, from
	}
	for i, u := range m.Units {
		t := hw.UnitTime(u)
		prefix[i+1] = prefix[i] + t
		for s := 0; s <= i; s++ {
			from[s*n1+i+1] = from[s*n1+i] + t
		}
	}
	return prefix, from
}

// solve finds the kernel's best plan at the given shares: the (partition,
// theta) sweep, keeping the first winner in sweep order.
func (k *kernel) solve(computeShare, bandwidthShare float64) (Plan, Eval, error) {
	f, b := envShare(computeShare), envShare(bandwidthShare)
	env, opt, nodes := &k.env, &k.opt, len(k.cuts)
	s := k.scratch.Get().(*scratch)
	defer k.scratch.Put(s)

	best := Eval{Latency: math.Inf(1)}
	bestP, bestTheta := -1, 0.0
	for _, p := range k.parts {
		k.edgeTimes(s.seg, p, f, b)
		for ti, theta := range k.thetas {
			cdf := k.cdf[ti*nodes : (ti+1)*nodes]
			if !k.solveChain(s, cdf) {
				continue
			}
			ev := k.eval(s, p, cdf)
			ev.Latency = ev.LatencyAt(f, b)
			if opt.MinAccuracy > 0 && ev.Accuracy+1e-12 < opt.MinAccuracy {
				continue
			}
			if env.Rate > 0 && env.Rate*ev.DeviceSec > DeviceStabilityRho {
				continue // device queue would be unstable at this rate
			}
			if ev.Latency < best.Latency {
				s.bestNodes = append(s.bestNodes[:0], s.nodes...)
				s.bestProbs = append(s.bestProbs[:0], s.probs...)
				best, bestP, bestTheta = ev, p, theta
			}
		}
	}
	if bestP < 0 {
		return Plan{}, Eval{}, fmt.Errorf("surgery: no plan meets accuracy %.3f (rate %.3g/s) for %s", opt.MinAccuracy, env.Rate, k.m.Name)
	}
	// The caller owns what it is handed: nothing returned aliases the scratch.
	plan := Plan{Model: k.m, Theta: bestTheta, Partition: bestP}
	if len(s.bestNodes) > 0 { // exitless plans carry nil, not empty
		plan.Exits = make([]int, len(s.bestNodes))
		for i, node := range s.bestNodes {
			plan.Exits[i] = k.cuts[node]
		}
	}
	best.ExitProbs = append([]float64(nil), s.bestProbs...)
	return plan, best, nil
}

// edgeTimes prices every chain edge i -> j under partition p at shares (f, b):
// the backbone segment (cuts[i], cuts[j]] — its device part, its server part
// over f, the transfer when it crosses p — plus node j's exit head.
func (k *kernel) edgeTimes(seg []float64, p int, f, b float64) {
	nodes := len(k.cuts)
	cross := k.bits[p]/(k.env.UplinkBps*b) + k.env.RTT
	for j := 1; j < nodes; j++ {
		to := k.cuts[j]
		devEnd, head := to, k.headDev[j] // the final node's head is zero: the backbone's own classifier is already counted
		if to > p {
			devEnd, head = p, k.headSrv[j]/f
		}
		for i := 0; i < j; i++ {
			from, t := k.cuts[i], 0.0
			if devEnd > from {
				t += k.devPrefix[devEnd] - k.devPrefix[from]
			}
			if srvStart := max(from, p); to > srvStart {
				t += (k.srvPrefix[to] - k.srvPrefix[srvStart]) / f
			}
			if from <= p && p < to {
				t += cross
			}
			seg[j*nodes+i] = t + head
		}
	}
}

// solveChain finds the optimal exit subset for the edge times in s.seg and
// one threshold's difficulty CDF, into s.nodes. The expected latency
// decomposes over consecutive selected exits as (1 - F(tau_i)) * T_seg(i, j),
// so subset selection is a shortest path, with a quantized-accuracy dimension
// when MinAccuracy binds.
func (k *kernel) solveChain(s *scratch, cdf []float64) bool {
	const inf = math.MaxFloat64
	nodes := len(k.cuts)
	last := nodes - 1
	s.nodes = s.nodes[:0]
	if k.opt.MinAccuracy <= 0 {
		// Pure shortest path over the DAG.
		dist, prev := s.dist, s.prev
		dist[0], prev[0] = 0, -1
		for j := 1; j <= last; j++ {
			dist[j], prev[j] = inf, -1
			for i := 0; i < j; i++ {
				if dist[i] == inf {
					continue
				}
				if d := dist[i] + (1-cdf[i])*s.seg[j*nodes+i]; d < dist[j] {
					dist[j], prev[j] = d, int32(i)
				}
			}
		}
		for node := prev[last]; node > 0; node = prev[node] {
			s.nodes = append(s.nodes, int(node))
		}
		reverseInts(s.nodes)
		return true
	}

	// Resource-constrained shortest path with a quantized accuracy index.
	// Each DP cell carries the *exact* accumulated accuracy of its stored
	// path; the bucket index only compresses the state space, so rounding
	// error does not accumulate along paths. Ties within a bucket keep the
	// lower-latency path (a bounded-error dominance rule; the caller
	// re-verifies the final plan exactly).
	const width = accBuckets + 1
	dp, acc, from := s.dist, s.dpAcc, s.prev // min latency, exact accuracy of the stored path, packed predecessor
	for c := range dp {
		dp[c], acc[c], from[c] = inf, 0, -1
	}
	dp[0] = 0
	for j := 1; j <= last; j++ {
		for i := 0; i < j; i++ {
			le := (1 - cdf[i]) * s.seg[j*nodes+i]
			ae := cdf[j] - cdf[i]
			if ae < 0 {
				ae = 0
			}
			ae *= k.acc[j]
			for q := 0; q <= accBuckets; q++ {
				if dp[i*width+q] == inf {
					continue
				}
				na := acc[i*width+q] + ae
				nq := int(na / k.delta)
				if nq > accBuckets {
					nq = accBuckets
				}
				c := j*width + nq
				if d := dp[i*width+q] + le; d < dp[c] || (d == dp[c] && na > acc[c]) {
					dp[c], acc[c], from[c] = d, na, int32(i)<<16|int32(q)
				}
			}
		}
	}
	bestQ, bestD := -1, inf
	for q := 0; q <= accBuckets; q++ {
		if c := last*width + q; dp[c] < inf && acc[c]+1e-12 >= k.opt.MinAccuracy && dp[c] < bestD {
			bestD, bestQ = dp[c], q
		}
	}
	if bestQ < 0 {
		return false
	}
	for node, q := last, bestQ; node != 0; {
		f := from[node*width+q]
		if f < 0 {
			return false
		}
		node, q = int(f>>16), int(f&0xffff)
		if node != 0 {
			s.nodes = append(s.nodes, node)
		}
	}
	reverseInts(s.nodes)
	return true
}

// eval is Evaluate for the plan (exits s.nodes, partition p, the threshold cdf
// belongs to), read off the kernel's arrays in the reference evaluator's
// arithmetic order; ExitProbs aliases s.probs and Latency is left to the caller.
func (k *kernel) eval(s *scratch, p int, cdf []float64) Eval {
	n1, last := len(k.devPrefix), len(k.cuts)-1
	var ev Eval
	s.probs = s.probs[:0]
	prev, prevCut := 0, 0
	var cumDev, cumSrv, cumTx, cumRTT float64 // path accumulators up to current exit
	for i := 0; i <= len(s.nodes); i++ {
		node := last
		if i < len(s.nodes) {
			node = s.nodes[i]
		}
		cut := k.cuts[node]
		if devEnd := min(cut, p); devEnd > prevCut {
			cumDev += k.devFrom[prevCut*n1+devEnd]
		}
		if srvStart := max(prevCut, p); cut > srvStart {
			cumSrv += k.srvFrom[srvStart*n1+cut]
		}
		if prevCut <= p && p < cut {
			cumTx += k.bits[p] / k.env.UplinkBps
			cumRTT += k.env.RTT
		}
		if cut <= p {
			cumDev += k.headDev[node]
		} else {
			cumSrv += k.headSrv[node]
		}
		pe := cdf[node] - cdf[prev]
		if pe < 0 {
			pe = 0
		}
		s.probs = append(s.probs, pe)
		ev.DeviceSec += pe * cumDev
		ev.ServerSec += pe * cumSrv
		ev.TxSec += pe * cumTx
		ev.FixedSec += pe * cumRTT
		if cut > p {
			ev.CrossProb += pe
		}
		ev.Accuracy += pe * k.acc[node]
		prev, prevCut = node, cut
	}
	ev.FixedSec += ev.DeviceSec
	ev.ExitProbs = s.probs
	return ev
}

func reverseInts(s []int) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}
