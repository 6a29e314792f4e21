package main

// Seeded input generation. Every input a run feeds the system — the CM
// Fortran programs, the served request mix and its arrival schedule —
// comes from here, driven only by the workload seed, so the same seed
// gives byte-identical inputs and the system under test never sees a
// random choice of its own.

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// rng is a splitmix64 stream: stable across Go releases, unlike
// math/rand's generators.
type rng struct{ state uint64 }

func newRNG(seed int64, stream string) *rng {
	h := uint64(1469598103934665603)
	for i := 0; i < len(stream); i++ {
		h = (h ^ uint64(stream[i])) * 1099511628211
	}
	return &rng{state: uint64(seed)*0x9E3779B97F4A7C15 ^ h}
}

func (r *rng) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// program is one generated CM Fortran program together with the
// operation counts its text implies. The counts are what the
// whole-program count metrics must read after a run: every node takes
// part in every array statement, so the node-averaged counts equal the
// number of statement executions.
type program struct {
	Source string
	Size   int
	// Computations counts elementwise statements, FORALLs and fills;
	// Reductions counts SUM, DOT_PRODUCT and MAXVAL; Summations counts
	// SUM and DOT_PRODUCT; Shifts counts CSHIFTs.
	Computations, Reductions, Summations, Shifts int
}

// stmtKind is one statement shape the generator draws from.
type stmtKind int

const (
	stElementwise stmtKind = iota
	stPolynomial
	stForall
	stFill
	stSum
	stDot
	stMaxval
	stCshift
	numStmtKinds
)

// emit writes one statement of kind k over arrays of size n, executed
// trips times, and charges its counts to p.
func (p *program) emit(b *strings.Builder, r *rng, k stmtKind, n, trips int) {
	switch k {
	case stElementwise:
		fmt.Fprintf(b, "B = A * %d.0 + B\n", 1+r.intn(4))
		p.Computations += trips
	case stPolynomial:
		b.WriteString("C = SQRT(A) + A * B - C / 3.0\n")
		p.Computations += trips
	case stForall:
		fmt.Fprintf(b, "FORALL (I = 1:%d) C(I) = A(I) + %d * I\n", n, 1+r.intn(5))
		p.Computations += trips
	case stFill:
		fmt.Fprintf(b, "C = %d.5\n", r.intn(9))
		p.Computations += trips
	case stSum:
		b.WriteString([]string{"S = SUM(A)\n", "S = SUM(B)\n"}[r.intn(2)])
		p.Reductions += trips
		p.Summations += trips
	case stDot:
		b.WriteString("S = DOT_PRODUCT(A, B)\n")
		p.Reductions += trips
		p.Summations += trips
	case stMaxval:
		b.WriteString([]string{"T = MAXVAL(B)\n", "T = MAXVAL(C)\n"}[r.intn(2)])
		p.Reductions += trips
	case stCshift:
		fmt.Fprintf(b, "A = CSHIFT(A, %d)\n", 1+r.intn(7))
		p.Shifts += trips
	}
}

// header writes a program's declarations of arrays A, B and C of size
// elements and scalars S and T, and their three initialising
// statements, and returns the program with those counted.
func header(b *strings.Builder, name string, size, c0 int) program {
	fmt.Fprintf(b, "PROGRAM %s\n", name)
	for _, a := range []string{"A", "B", "C"} {
		fmt.Fprintf(b, "REAL %s(%d)\n", a, size)
	}
	b.WriteString("REAL S\nREAL T\n")
	fmt.Fprintf(b, "FORALL (I = 1:%d) A(I) = I\n", size)
	fmt.Fprintf(b, "FORALL (I = 1:%d) B(I) = 2 * I\n", size)
	fmt.Fprintf(b, "C = %d.0\n", c0)
	return program{Size: size, Computations: 3}
}

// genProgram writes a program named name with arrays of size elements:
// 3–7 top-level items, each a statement or a DO loop of trip count up to
// maxTrips around 1–3 statements, and always a CSHIFT (so the Figure 6
// question has sends to count) and a final SUM(A) (so {A Sums} is
// active at least once).
func genProgram(r *rng, name string, size, maxTrips, c0 int) program {
	var b strings.Builder
	p := header(&b, name, size, c0)
	items := 3 + r.intn(5)
	shiftAt := r.intn(items)
	for i := 0; i < items; i++ {
		if r.intn(2) == 0 {
			trips := 2 + r.intn(maxTrips-1)
			fmt.Fprintf(&b, "DO K = 1, %d\n", trips)
			for j, n := 0, 1+r.intn(3); j < n; j++ {
				p.emit(&b, r, stmtKind(r.intn(int(numStmtKinds))), size, trips)
			}
			if i == shiftAt {
				p.emit(&b, r, stCshift, size, trips)
			}
			b.WriteString("END DO\n")
			continue
		}
		p.emit(&b, r, stmtKind(r.intn(int(numStmtKinds))), size, 1)
		if i == shiftAt {
			p.emit(&b, r, stCshift, size, 1)
		}
	}
	b.WriteString("S = SUM(A)\nEND\n")
	p.Reductions++
	p.Summations++
	p.Source = b.String()
	return p
}

// distinctProgram is session i's program on profile-distinct: a size
// below machine.ParallelThreshold (4096 elements, so node regions stay
// serial) and i as the initial value of C, so no two sessions of a run
// share a source and every one misses the compile cache. The program
// name is the same for all, so the process-wide interner does not grow
// with the number of sessions run.
func distinctProgram(seed int64, i int) program { return distinctVariant(seed, i, i) }

// distinctVariant is session i's program with c0 as the initial value
// of C: the same work as distinctProgram(seed, i) in a different source.
func distinctVariant(seed int64, i, c0 int) program {
	r := newRNG(seed, fmt.Sprintf("distinct/%d", i))
	size := 64 + 8*r.intn(500)
	return genProgram(r, "dist", size, 12, c0)
}

// genFixed writes a program of fixed shape — the initialisations, one
// DO loop of trips around one statement of each kind in body, and a
// final SUM(A) — so the programs of a small pool cost about the same
// whatever the seed; the seed picks the statement order and constants.
func genFixed(r *rng, name string, size, trips int, body []stmtKind) program {
	var b strings.Builder
	p := header(&b, name, size, 1)
	order := append([]stmtKind(nil), body...)
	for i := len(order) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	fmt.Fprintf(&b, "DO K = 1, %d\n", trips)
	for _, k := range order {
		p.emit(&b, r, k, size, trips)
	}
	b.WriteString("END DO\nS = SUM(A)\nEND\n")
	p.Reductions++
	p.Summations++
	p.Source = b.String()
	return p
}

// parallelPool is profile-parallel's program pool: programs over
// 32768-element arrays, so every node region of a 32-node session
// clears machine.ParallelThreshold.
func parallelPool(seed int64, n int) []program {
	body := []stmtKind{stElementwise, stPolynomial, stForall, stSum, stMaxval, stCshift}
	out := make([]program, n)
	for i := range out {
		r := newRNG(seed, fmt.Sprintf("parallel/%d", i))
		out[i] = genFixed(r, fmt.Sprintf("p%d", i), 32768, 3, body)
	}
	return out
}

// servedShape sizes each scenario's programs (array elements, DO-loop
// trips) so that its sessions cost about the same, ≈3 ms of run on a
// 2-core host: the crash-recovery machinery makes crashy sessions
// dearer per virtual microsecond, so theirs are short. With one mode
// instead of one per scenario, the latency percentiles do not sit in a
// gap between scenario groups, where they swing from run to run.
var servedShape = map[string]struct{ size, trips int }{
	"plain":    {8192, 4},
	"faulty":   {8192, 4},
	"crashy":   {128, 2},
	"parallel": {8192, 4},
}

// servedSource is entry i of the serve-mixed source pool for a scenario
// kind.
func servedSource(seed int64, kind string, i int) program {
	r := newRNG(seed, fmt.Sprintf("serve/%s/%d", kind, i))
	sh := servedShape[kind]
	return genFixed(r, "svc", sh.size, sh.trips, []stmtKind{stElementwise, stFill, stSum, stDot, stCshift})
}

// request is one arrival of the open-loop schedule.
type request struct {
	Due time.Duration // offset from the schedule's start
	// Diagnose selects POST /v1/diagnose on corpus entry Corpus;
	// otherwise it is POST /v1/sessions for Scenario with pool entry
	// Entry.
	Diagnose bool
	Corpus   string
	Scenario string
	Entry    int
}

// diagnoseEvery is the mean spacing of diagnoses in the served mix:
// about one request in twenty is a Consultant search.
const diagnoseEvery = 20

// diagnoseCorpus names the corpus programs served diagnoses draw from.
var diagnoseCorpus = []string{"hotspot-array", "serialized-chain"}

// schedule draws the open-loop arrivals for one run: count arrivals
// spread over span as a Poisson process conditioned on its count (the
// sorted uniform order statistics). One arrival at a seeded position in
// each run of diagnoseEvery is a diagnosis; the others are sessions
// whose scenario cycles through kinds, on a pool entry drawn from
// poolSize.
func schedule(seed int64, count int, span time.Duration, kinds []string, poolSize int) []request {
	r := newRNG(seed, "schedule")
	dues := make([]time.Duration, count)
	for i := range dues {
		dues[i] = time.Duration(r.float() * float64(span))
	}
	sort.Slice(dues, func(i, j int) bool { return dues[i] < dues[j] })
	out := make([]request, count)
	next := 0
	diag := r.intn(diagnoseEvery)
	for i := range out {
		q := request{Due: dues[i]}
		if i%diagnoseEvery == 0 {
			diag = i + r.intn(diagnoseEvery)
		}
		if i == diag {
			q.Diagnose = true
			q.Corpus = diagnoseCorpus[r.intn(len(diagnoseCorpus))]
		} else {
			q.Scenario = kinds[next%len(kinds)]
			q.Entry = r.intn(poolSize)
			next++
		}
		out[i] = q
	}
	return out
}
