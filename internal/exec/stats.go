package exec

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"kex/internal/ebpf/helpers"
	"kex/internal/kernel"
)

// Stats accumulates per-program and per-CPU execution counters plus
// cumulative load-phase timings for one Core. The core folds each batch's
// Reports in once the batch is done (Core.Run folds its one report), with
// one atomic add per counter and program: a healthy run writes no stats of
// its own. So a Snapshot taken while a batch runs misses that batch's runs,
// and only those. What the supervisor acts on (faults, denials, probes,
// transitions) is counted at once. A program's run counters and helper
// counts are striped by CPU, so shards neither queue on a lock nor bounce a
// shared cache line; Snapshot sums the stripes on read.
//
// Nothing on the write path looks a name up: a stack resolves its
// program's record once at load (Core.Program) and every Request carries
// it, and the per-CPU cells are a slice indexed by CPU id.
type Stats struct {
	programs sync.Map // program name -> *Program
	// cpus holds one cell per CPU of the core's kernel. A CPU id outside
	// it (a request may name any) has its cell in otherCPUs.
	cpus      []cpuCell
	otherCPUs sync.Map // cpu id -> *cpuCell
	loads     atomic.Uint64

	// Load-phase timings are control-plane only (one update per program
	// load), so a small mutex is fine and keeps the insertion order simple.
	phaseMu    sync.Mutex
	loadPhases map[string]int64
	phaseOrder []string
}

// progCounter names one per-program counter. Run counters index
// runStripe.n; the others index Program.n through Program.at.
type progCounter int

const (
	pInvocations progCounter = iota
	pErrors
	pInstructions
	pFuelUsed
	pMapOps
	pRuntimeNs
	pWallNs
	pCPUTimeNs
	// The counters above are the run counters fold sums from the reports;
	// they live in the CPU stripes.
	pFaults
	pDenied
	pFallbacks
	pProbeFailures
	pReloadFailures
	pDynamicChecks
	pElidedChecks
	pFuelElisions
	pTVDemotions
	pConcDemotions
	numProgCounters
)

// progReason names one most-recent-reason string; it indexes
// Program.reasons.
type progReason int

const (
	rReloadError progReason = iota
	rTVDemotion
	rConcDemotion
	numProgReasons
)

// cpuCounter names one per-CPU counter; it indexes cpuCell.n.
type cpuCounter int

const (
	cInvocations cpuCounter = iota
	cInstructions
	cRuntimeNs
	cWallNs
	cCPUTimeNs
	numCPUCounters
)

// numRunCounters is how many leading progCounters are run counters.
const numRunCounters = pFaults

// Program is one program's record on a core: its name, the accumulator
// behind its ProgramStats row, its supervisor health and its CONC verdict.
// A stack resolves it once at load (Core.Program) and every Request of the
// program carries it, so the stats fold, the supervisor's gate and the conc
// gate reach it without a name lookup. The ns counters are int64 in ProgramStats
// and stored here as their two's complement, which adds identically. A run
// counter's total is the sum of its stripe entries; every other counter
// has one entry in n.
type Program struct {
	// The read-mostly fields sit on a line of their own: a batch fold
	// writes the counters after the pad.
	name string
	// health is the installed supervisor's state of the program, made
	// under that supervisor's mu on the program's first gated dispatch.
	health atomic.Pointer[progHealth]
	conc   atomic.Pointer[concVerdict] // nil until Core.SetConc
	_      kernel.CacheLinePad

	n           [numProgCounters - numRunCounters]atomic.Uint64
	stripes     [statStripes]runStripe
	reasons     [numProgReasons]atomic.Pointer[string]
	transitions sync.Map // "from->to" -> *atomic.Uint64
}

// statStripes is how many CPU stripes a program's run counters have; CPU
// i writes stripe i mod statStripes.
const statStripes = 8

// runStripe is one CPU stripe of a program's run counters and helper
// counts, padded so neighbouring stripes do not share a cache line.
type runStripe struct {
	n       [numRunCounters]atomic.Uint64
	helpers helperCells
	_       kernel.CacheLinePad
}

// helperCells counts helper calls by count slot (helpers.Calls) in chunks
// allocated on first use, so growing never moves a live counter.
type helperCells struct {
	mu     sync.Mutex // serialises growth
	chunks atomic.Pointer[[]*helperChunk]
}

// chunkSlots is how many helper count slots one chunk holds.
const chunkSlots = 32

type helperChunk [chunkSlots]atomic.Uint64

// add counts n calls in the given slot.
func (h *helperCells) add(slot int, n uint64) {
	ci := slot / chunkSlots
	p := h.chunks.Load()
	if p == nil || ci >= len(*p) {
		p = h.grow(ci + 1)
	}
	(*p)[ci][slot%chunkSlots].Add(n)
}

// grow extends the chunk table to at least n chunks.
func (h *helperCells) grow(n int) *[]*helperChunk {
	h.mu.Lock()
	defer h.mu.Unlock()
	var chunks []*helperChunk
	if p := h.chunks.Load(); p != nil {
		if len(*p) >= n {
			return p
		}
		chunks = *p
	}
	grown := append(chunks[:len(chunks):len(chunks)], make([]*helperChunk, n-len(chunks))...)
	for i := len(chunks); i < n; i++ {
		grown[i] = new(helperChunk)
	}
	h.chunks.Store(&grown)
	return &grown
}

// addTo adds every nonzero count to the name-keyed total.
func (h *helperCells) addTo(out map[string]uint64) map[string]uint64 {
	p := h.chunks.Load()
	if p == nil {
		return out
	}
	for ci, chunk := range *p {
		for i := range chunk {
			if n := chunk[i].Load(); n != 0 {
				if out == nil {
					out = make(map[string]uint64)
				}
				out[helpers.SlotName(ci*chunkSlots+i)] += n
			}
		}
	}
	return out
}

// cpuCell is the hot accumulator behind one CPUStats row.
type cpuCell struct {
	n [numCPUCounters]atomic.Uint64
	_ kernel.CacheLinePad
}

// statField reads and adds to one numeric field of a stats row.
type statField[S any] struct {
	load func(*S) uint64
	add  func(*S, uint64)
}

func field[S any, T uint64 | int64](f func(*S) *T) statField[S] {
	return statField[S]{
		load: func(s *S) uint64 { return uint64(*f(s)) },
		add:  func(s *S, v uint64) { *f(s) += T(v) },
	}
}

// progFields maps each counter to its ProgramStats field: adding a counter
// is one enum value and one row here.
var progFields = [numProgCounters]statField[ProgramStats]{
	pInvocations:    field(func(p *ProgramStats) *uint64 { return &p.Invocations }),
	pErrors:         field(func(p *ProgramStats) *uint64 { return &p.Errors }),
	pInstructions:   field(func(p *ProgramStats) *uint64 { return &p.Instructions }),
	pFuelUsed:       field(func(p *ProgramStats) *uint64 { return &p.FuelUsed }),
	pMapOps:         field(func(p *ProgramStats) *uint64 { return &p.MapOps }),
	pRuntimeNs:      field(func(p *ProgramStats) *int64 { return &p.RuntimeNs }),
	pWallNs:         field(func(p *ProgramStats) *int64 { return &p.WallNs }),
	pCPUTimeNs:      field(func(p *ProgramStats) *int64 { return &p.CPUTimeNs }),
	pFaults:         field(func(p *ProgramStats) *uint64 { return &p.Faults }),
	pDenied:         field(func(p *ProgramStats) *uint64 { return &p.Denied }),
	pFallbacks:      field(func(p *ProgramStats) *uint64 { return &p.Fallbacks }),
	pProbeFailures:  field(func(p *ProgramStats) *uint64 { return &p.ProbeFailures }),
	pReloadFailures: field(func(p *ProgramStats) *uint64 { return &p.ReloadFailures }),
	pDynamicChecks:  field(func(p *ProgramStats) *uint64 { return &p.DynamicChecks }),
	pElidedChecks:   field(func(p *ProgramStats) *uint64 { return &p.ElidedChecks }),
	pFuelElisions:   field(func(p *ProgramStats) *uint64 { return &p.FuelElisions }),
	pTVDemotions:    field(func(p *ProgramStats) *uint64 { return &p.TVDemotions }),
	pConcDemotions:  field(func(p *ProgramStats) *uint64 { return &p.ConcDemotions }),
}

// reasonFields maps each reason to its ProgramStats field.
var reasonFields = [numProgReasons]func(*ProgramStats) *string{
	rReloadError:  func(p *ProgramStats) *string { return &p.LastReloadError },
	rTVDemotion:   func(p *ProgramStats) *string { return &p.LastTVDemotionReason },
	rConcDemotion: func(p *ProgramStats) *string { return &p.LastConcReason },
}

// cpuFields maps each counter to its CPUStats field.
var cpuFields = [numCPUCounters]statField[CPUStats]{
	cInvocations:  field(func(c *CPUStats) *uint64 { return &c.Invocations }),
	cInstructions: field(func(c *CPUStats) *uint64 { return &c.Instructions }),
	cRuntimeNs:    field(func(c *CPUStats) *int64 { return &c.RuntimeNs }),
	cWallNs:       field(func(c *CPUStats) *int64 { return &c.WallNs }),
	cCPUTimeNs:    field(func(c *CPUStats) *int64 { return &c.CPUTimeNs }),
}

// ProgramStats aggregates every invocation of one named program.
type ProgramStats struct {
	Invocations  uint64
	Errors       uint64 // invocations that returned an engine error
	Instructions uint64
	FuelUsed     uint64
	MapOps       uint64
	HelperCalls  map[string]uint64
	RuntimeNs    int64 // cumulative virtual latency
	WallNs       int64 // cumulative wall latency
	CPUTimeNs    int64 // cumulative virtual CPU time consumed by the program itself

	// Supervisor accounting. Zero unless the program runs under an
	// exec.Supervisor.
	Faults      uint64            // supervised runs classified as faults
	Denied      uint64            // dispatches refused while quarantined
	Fallbacks   uint64            // denied dispatches served the fallback R0 = 0
	Transitions map[string]uint64 // state transitions, "healthy->degraded" form

	// Recovery-probe visibility: why a quarantined program keeps failing to
	// come back instead of just how long its backoff has grown.
	// ProbeFailures counts recovery probes that ended in re-quarantine
	// (the probe run faulted, or its reload was refused); ReloadFailures
	// counts the reload-refused subset; LastReloadError is the most recent
	// reload error's text, empty when reloads have all succeeded.
	ProbeFailures   uint64
	ReloadFailures  uint64
	LastReloadError string

	// Check accounting from the safext toolchain's elision pass: the
	// number of runtime check sites the loaded object still carries vs.
	// how many the static analyzer proved away, plus invocations that
	// skipped per-instruction fuel metering under a static bound. Zero
	// for verifier-stack programs and naive builds.
	DynamicChecks uint64
	ElidedChecks  uint64
	FuelElisions  uint64

	// Translation-validation accounting: loads of this program whose OptMIR
	// build failed refinement and was demoted to OptElide (the same
	// lowering with the optimizer's passes off, itself validated), and the
	// most recent refutation. A fleet running with -tv=strict treats
	// any nonzero TVDemotions as a deploy blocker.
	TVDemotions          uint64
	LastTVDemotionReason string

	// Shard-safety accounting: invocations of this program that a multi-shard
	// plane in warn mode serialized onto shard 0 because the signed CONC
	// report convicted the program of a cross-shard race, and the conviction
	// behind the most recent demotion. A fleet running -conc=strict never
	// demotes — Racy programs are refused at dispatch — so nonzero
	// ConcDemotions identifies exactly the programs strict mode would reject.
	ConcDemotions  uint64
	LastConcReason string
}

// CPUStats aggregates every invocation dispatched on one CPU.
type CPUStats struct {
	Invocations  uint64
	Instructions uint64
	RuntimeNs    int64
	WallNs       int64
	CPUTimeNs    int64
}

// RecordLoad accounts one program load and its per-phase wall timings,
// which are summed per core, not per program.
func (s *Stats) RecordLoad(phases PhaseTimings) {
	s.loads.Add(1)
	s.phaseMu.Lock()
	defer s.phaseMu.Unlock()
	if s.loadPhases == nil {
		s.loadPhases = make(map[string]int64)
	}
	for _, p := range phases {
		if _, seen := s.loadPhases[p.Name]; !seen {
			s.phaseOrder = append(s.phaseOrder, p.Name)
		}
		s.loadPhases[p.Name] += p.WallNs
	}
}

// RecordChecks accounts the static-vs-dynamic check split of the loaded
// program, as read from its signed object metadata.
func (p *Program) RecordChecks(dynamic, elided uint64) {
	p.at(pDynamicChecks).Store(dynamic)
	p.at(pElidedChecks).Store(elided)
}

// RecordTVDemotion accounts one load whose OptMIR build failed translation
// validation and fell back to OptElide, retaining the refutation text so an
// operator can see *what* the optimizer got wrong, not just that it did.
func (p *Program) RecordTVDemotion(reason string) {
	p.at(pTVDemotions).Add(1)
	p.reasons[rTVDemotion].Store(&reason)
}

// RecordConcDemotion accounts one invocation serialized onto a single shard
// because the program's CONC verdict is Racy and the plane runs in warn
// mode, retaining the conviction so an operator sees *which* access site
// forfeited the parallelism.
func (p *Program) RecordConcDemotion(reason string) {
	p.at(pConcDemotions).Add(1)
	p.reasons[rConcDemotion].Store(&reason)
}

// Name returns the program's name, its key in Snapshot.Programs.
func (p *Program) Name() string { return p.name }

// Program returns (creating on first use) the named program's record, for
// a stack to resolve once at load and set on every Request of the program.
func (c *Core) Program(name string) *Program { return c.Stats.prog(name) }

// prog returns (creating on first use) the named program's record.
func (s *Stats) prog(name string) *Program {
	if p := s.lookup(name); p != nil {
		return p
	}
	p, _ := s.programs.LoadOrStore(name, &Program{name: name})
	return p.(*Program)
}

// lookup returns the named program's record, nil when none was made.
func (s *Stats) lookup(name string) *Program {
	if p, ok := s.programs.Load(name); ok {
		return p.(*Program)
	}
	return nil
}

// at returns the cell of a counter that is not a run counter.
func (p *Program) at(i progCounter) *atomic.Uint64 {
	return &p.n[i-numRunCounters]
}

// sizeCPUs gives the stats one cell per CPU of a kernel with n CPUs. The
// core calls it once, before any run.
func (s *Stats) sizeCPUs(n int) { s.cpus = make([]cpuCell, n) }

// cpu returns (creating on first use) the per-CPU accumulator.
func (s *Stats) cpu(id int) *cpuCell {
	if uint(id) < uint(len(s.cpus)) {
		return &s.cpus[id]
	}
	if c, ok := s.otherCPUs.Load(id); ok {
		return c.(*cpuCell)
	}
	c, _ := s.otherCPUs.LoadOrStore(id, &cpuCell{})
	return c.(*cpuCell)
}

// recordDenied accounts one dispatch refused at the supervisor gate and
// served the fallback R0 = 0.
func (p *Program) recordDenied() {
	p.at(pDenied).Add(1)
	p.at(pFallbacks).Add(1)
}

// recordProbeFailure accounts one failed recovery probe. A non-nil
// reloadErr marks the probe as refused at reload (re-verify/re-validate)
// rather than failed at run time, and its text is retained so a fleet
// operator can see *why* the program never recovers.
func (p *Program) recordProbeFailure(reloadErr error) {
	p.at(pProbeFailures).Add(1)
	if reloadErr != nil {
		p.at(pReloadFailures).Add(1)
		msg := reloadErr.Error()
		p.reasons[rReloadError].Store(&msg)
	}
}

// recordTransition accounts one supervisor state transition. Transitions
// are rare, so allocating a cell LoadOrStore may discard is fine.
func (p *Program) recordTransition(from, to State) {
	c, _ := p.transitions.LoadOrStore(string(from)+"->"+string(to), new(atomic.Uint64))
	c.(*atomic.Uint64).Add(1)
}

// fold accounts a done batch's runs on cpu: per program it sums the
// reports on the stack, then adds each nonzero total to the program's CPU
// stripe once, and the batch's totals to the CPU's cell once. A helper
// slot past the inline ones, which costs its report an allocation too, is
// added per report. Dispatches that never ran are the gate's to count. It
// consumes the boxes' ran flags and returns the runs' consumed CPU time.
func (s *Stats) fold(cpu int, boxes []reportBox) int64 {
	var total [numRunCounters]uint64
	for i := range boxes {
		if !boxes[i].ran {
			continue
		}
		p := boxes[i].prog
		st := &p.stripes[uint(cpu)%statStripes]
		var sum [numRunCounters]uint64
		var calls [inlineCalls]uint64
		var elided uint64
		for j := i; j < len(boxes); j++ {
			b := &boxes[j]
			if !b.ran || b.prog != p {
				continue
			}
			b.ran = false
			sum[pInvocations]++
			if b.err != nil {
				sum[pErrors]++
			}
			if b.elided {
				elided++
			}
			sum[pInstructions] += b.Instructions
			sum[pFuelUsed] += b.FuelUsed
			sum[pMapOps] += b.MapOps
			sum[pRuntimeNs] += uint64(b.RuntimeNs)
			sum[pWallNs] += uint64(b.WallNs)
			sum[pCPUTimeNs] += uint64(b.CPUTimeNs)
			for slot, n := range b.HelperCalls {
				if slot < inlineCalls {
					calls[slot] += n
				} else if n != 0 {
					st.helpers.add(slot, n)
				}
			}
		}
		for k, n := range sum {
			if n != 0 {
				st.n[k].Add(n)
				total[k] += n
			}
		}
		for slot, n := range calls {
			if n != 0 {
				st.helpers.add(slot, n)
			}
		}
		if elided != 0 {
			p.at(pFuelElisions).Add(elided)
		}
	}
	if total[pInvocations] != 0 {
		cs := s.cpu(cpu)
		cs.n[cInvocations].Add(total[pInvocations])
		cs.n[cInstructions].Add(total[pInstructions])
		cs.n[cRuntimeNs].Add(total[pRuntimeNs])
		cs.n[cWallNs].Add(total[pWallNs])
		cs.n[cCPUTimeNs].Add(total[pCPUTimeNs])
	}
	return int64(total[pCPUTimeNs])
}

// Snapshot is a consistent, caller-owned copy of the accumulated stats.
type Snapshot struct {
	Loads      uint64
	LoadPhases PhaseTimings // cumulative wall ns per phase, pipeline order
	Programs   map[string]ProgramStats
	CPUs       map[int]CPUStats
}

// counterMap materialises a sync.Map of atomic counters, or nil when empty.
func counterMap(m *sync.Map) map[string]uint64 {
	var out map[string]uint64
	m.Range(func(k, v any) bool {
		if out == nil {
			out = make(map[string]uint64)
		}
		out[k.(string)] = v.(*atomic.Uint64).Load()
		return true
	})
	return out
}

// Snapshot copies the current totals. The returned maps are deep copies and
// safe to retain while execution continues. Counters written concurrently
// with the snapshot land in either this snapshot or the next.
func (s *Stats) Snapshot() Snapshot {
	snap := Snapshot{
		Loads:    s.loads.Load(),
		Programs: make(map[string]ProgramStats),
		CPUs:     make(map[int]CPUStats),
	}
	s.phaseMu.Lock()
	for _, name := range s.phaseOrder {
		snap.LoadPhases = append(snap.LoadPhases, Phase{Name: name, WallNs: s.loadPhases[name]})
	}
	s.phaseMu.Unlock()
	s.programs.Range(func(k, v any) bool {
		c := v.(*Program)
		ps := ProgramStats{Transitions: counterMap(&c.transitions)}
		for i := numRunCounters; i < numProgCounters; i++ {
			progFields[i].add(&ps, c.at(i).Load())
		}
		for j := range c.stripes {
			st := &c.stripes[j]
			for i := range st.n {
				progFields[i].add(&ps, st.n[i].Load())
			}
			ps.HelperCalls = st.helpers.addTo(ps.HelperCalls)
		}
		for i, f := range reasonFields {
			if p := c.reasons[i].Load(); p != nil {
				*f(&ps) = *p
			}
		}
		snap.Programs[k.(string)] = ps
		return true
	})
	addCPU := func(id int, c *cpuCell) {
		var cs CPUStats
		for i, f := range cpuFields {
			f.add(&cs, c.n[i].Load())
		}
		snap.CPUs[id] = cs
	}
	for id := range s.cpus {
		// A CPU's cell is in the snapshot once a run was accounted to it.
		if c := &s.cpus[id]; c.n[cInvocations].Load() != 0 {
			addCPU(id, c)
		}
	}
	s.otherCPUs.Range(func(k, v any) bool {
		addCPU(k.(int), v.(*cpuCell))
		return true
	})
	return snap
}

// Totals sums the per-program stats into one row — the "whole stack" line
// of a Table 2-style overhead comparison. Counters are summed; each reason
// carries a non-empty value from some program.
func (snap Snapshot) Totals() ProgramStats {
	var t ProgramStats
	for _, ps := range snap.Programs {
		for _, f := range progFields {
			f.add(&t, f.load(&ps))
		}
		for _, f := range reasonFields {
			if r := *f(&ps); r != "" {
				*f(&t) = r
			}
		}
		for h, n := range ps.HelperCalls {
			if t.HelperCalls == nil {
				t.HelperCalls = make(map[string]uint64)
			}
			t.HelperCalls[h] += n
		}
		for tr, n := range ps.Transitions {
			if t.Transitions == nil {
				t.Transitions = make(map[string]uint64)
			}
			t.Transitions[tr] += n
		}
	}
	return t
}

// HelperCallRows renders the helper-call counts sorted by descending count
// then name, for stable experiment output.
func (ps ProgramStats) HelperCallRows() []string {
	type row struct {
		name string
		n    uint64
	}
	rows := make([]row, 0, len(ps.HelperCalls))
	for name, n := range ps.HelperCalls {
		rows = append(rows, row{name, n})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].n != rows[j].n {
			return rows[i].n > rows[j].n
		}
		return rows[i].name < rows[j].name
	})
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprintf("%s×%d", r.name, r.n)
	}
	return out
}

// String renders one compact stats row.
func (ps ProgramStats) String() string {
	helpers := "none"
	if len(ps.HelperCalls) > 0 {
		helpers = strings.Join(ps.HelperCallRows(), " ")
	}
	return fmt.Sprintf("runs=%d errs=%d insns=%d fuel=%d mapops=%d virt=%dns wall=%dns helpers=%s",
		ps.Invocations, ps.Errors, ps.Instructions, ps.FuelUsed, ps.MapOps,
		ps.RuntimeNs, ps.WallNs, helpers)
}
