package helpers

import (
	"fmt"
	"math"
	"sort"

	"kex/internal/kernel/callgraph"
)

// Eras are the kernel versions Figures 2 and 4 annotate, with their release
// years. Helper Specs carry one of these version strings in Since.
var Eras = []struct {
	Version string
	Year    int
}{
	{"v3.18", 2014},
	{"v4.3", 2015},
	{"v4.9", 2016},
	{"v4.14", 2017},
	{"v4.20", 2018},
	{"v5.4", 2019},
	{"v5.10", 2020},
	{"v5.15", 2021},
	{"v5.18", 2022},
	{"v6.1", 2022},
}

// eraTargets is the cumulative helper count at each era, digitised from
// Figure 4 (the paper reports 249 helpers at Linux 5.18 and roughly 50 new
// helpers every two years).
var eraTargets = map[string]int{
	"v3.18": 12,
	"v4.3":  30,
	"v4.9":  52,
	"v4.14": 85,
	"v4.20": 115,
	"v5.4":  145,
	"v5.10": 180,
	"v5.15": 215,
	"v5.18": 249,
	"v6.1":  260,
}

// Figure 3 calibration over the 249 helpers present in v5.18: 52.2% reach
// at least 30 call-graph nodes and 34.5% reach at least 500; the extremes
// are bpf_get_current_pid_tgid (1) and bpf_sys_bpf (4845).
const (
	fig3Universe    = 249
	fig3AtLeast30   = 130 // round(0.522 * 249)
	fig3AtLeast500  = 86  // round(0.345 * 249)
	fig3MaxNodes    = 4845
	fig3SynthMax500 = 4400 // synthetic sizes stay below the bpf_sys_bpf anchor
)

// eraIndex returns the position of a version in Eras.
func eraIndex(v string) int {
	for i, e := range Eras {
		if e.Version == v {
			return i
		}
	}
	return -1
}

// VersionAtMost reports whether version a is at most version b in era order.
func VersionAtMost(a, b string) bool { return eraIndex(a) >= 0 && eraIndex(a) <= eraIndex(b) }

// Registry is the helper-function table the verifier checks calls against
// and the engines dispatch through.
type Registry struct {
	// byID is indexed by helper ID, nil where no helper is registered, so
	// resolving a call immediate is a bounds check and an index. The
	// kernel crate's IDs start at 1000, past the sequential space, which
	// leaves a gap of nil entries below them.
	byID    []*Spec
	byName  map[string]*Spec
	ordered []*Spec
}

// known returns the hand-curated helper entries: every helper the
// experiments execute, plus well-known metadata-only entries. CallGraph
// sizes are the calibration anchors of Figure 3.
func known() []Spec {
	return []Spec{
		// v3.18 — the original tracing/networking set.
		{Name: "bpf_map_lookup_elem", Since: "v3.18", CallGraphNodes: 35, Args: []ArgType{ArgConstMapHandle, ArgPtrToMapKey}, Ret: RetMapValueOrNull, Impl: implMapLookupElem},
		{Name: "bpf_map_update_elem", Since: "v3.18", CallGraphNodes: 120, Args: []ArgType{ArgConstMapHandle, ArgPtrToMapKey, ArgPtrToMapValue, ArgScalar}, Ret: RetInteger, Impl: implMapUpdateElem},
		{Name: "bpf_map_delete_elem", Since: "v3.18", CallGraphNodes: 80, Args: []ArgType{ArgConstMapHandle, ArgPtrToMapKey}, Ret: RetInteger, Impl: implMapDeleteElem},
		{Name: "bpf_probe_read", Since: "v3.18", CallGraphNodes: 25, Args: []ArgType{ArgPtrToUninitMem, ArgConstSize, ArgAnything}, Ret: RetInteger, Impl: implProbeRead},
		{Name: "bpf_ktime_get_ns", Since: "v3.18", CallGraphNodes: 5, Ret: RetInteger, Impl: implKtimeGetNs},
		{Name: "bpf_trace_printk", Since: "v3.18", CallGraphNodes: 60, Args: []ArgType{ArgPtrToMem, ArgConstSize, ArgAnything, ArgAnything, ArgAnything}, Ret: RetInteger, Impl: implTracePrintk},
		{Name: "bpf_get_prandom_u32", Since: "v3.18", CallGraphNodes: 3, Ret: RetInteger, Impl: implGetPrandomU32},
		{Name: "bpf_get_smp_processor_id", Since: "v3.18", CallGraphNodes: 2, Ret: RetInteger, Impl: implGetSmpProcessorID},

		// v4.3 era.
		{Name: "bpf_get_current_pid_tgid", Since: "v4.3", CallGraphNodes: 1, Ret: RetInteger, Impl: implGetCurrentPidTgid},
		{Name: "bpf_get_current_uid_gid", Since: "v4.3", CallGraphNodes: 4, Ret: RetInteger, Impl: implGetCurrentUidGid},
		{Name: "bpf_get_current_comm", Since: "v4.3", CallGraphNodes: 12, Args: []ArgType{ArgPtrToUninitMem, ArgConstSize}, Ret: RetInteger, Impl: implGetCurrentComm},
		{Name: "bpf_tail_call", Since: "v4.3", CallGraphNodes: 12, Args: []ArgType{ArgPtrToCtx, ArgConstMapHandle, ArgScalar}, Ret: RetInteger, Impl: implTailCall},
		{Name: "bpf_skb_store_bytes", Since: "v4.3", CallGraphNodes: 75, Args: []ArgType{ArgPtrToCtx, ArgScalar, ArgPtrToMem, ArgConstSize, ArgScalar}, Ret: RetInteger, Impl: implSkbStoreBytes},
		{Name: "bpf_perf_event_output", Since: "v4.3", CallGraphNodes: 210, Args: []ArgType{ArgPtrToCtx, ArgConstMapHandle, ArgScalar, ArgPtrToMem, ArgConstSize}, Ret: RetInteger, Impl: implPerfEventOutput},
		{Name: "bpf_skb_vlan_push", Since: "v4.3", CallGraphNodes: 110, Args: []ArgType{ArgPtrToCtx, ArgScalar, ArgScalar}, Ret: RetInteger},
		{Name: "bpf_skb_vlan_pop", Since: "v4.3", CallGraphNodes: 105, Args: []ArgType{ArgPtrToCtx}, Ret: RetInteger},
		{Name: "bpf_redirect", Since: "v4.3", CallGraphNodes: 85, Args: []ArgType{ArgScalar, ArgScalar}, Ret: RetInteger},
		{Name: "bpf_clone_redirect", Since: "v4.3", CallGraphNodes: 130, Args: []ArgType{ArgPtrToCtx, ArgScalar, ArgScalar}, Ret: RetInteger},

		// v4.9 era.
		{Name: "bpf_get_current_task", Since: "v4.9", CallGraphNodes: 2, Ret: RetInteger, Impl: implGetCurrentTask},
		{Name: "bpf_skb_load_bytes", Since: "v4.9", CallGraphNodes: 40, Args: []ArgType{ArgPtrToCtx, ArgScalar, ArgPtrToUninitMem, ArgConstSize}, Ret: RetInteger, Impl: implSkbLoadBytes},
		{Name: "bpf_csum_diff", Since: "v4.9", CallGraphNodes: 18, Args: []ArgType{ArgPtrToMem, ArgConstSizeOrZero, ArgPtrToMem, ArgConstSizeOrZero, ArgScalar}, Ret: RetInteger, Impl: implCsumDiff},
		{Name: "bpf_get_stackid", Since: "v4.9", CallGraphNodes: 150, Args: []ArgType{ArgPtrToCtx, ArgConstMapHandle, ArgScalar}, Ret: RetInteger},
		{Name: "bpf_probe_write_user", Since: "v4.9", CallGraphNodes: 30, Args: []ArgType{ArgAnything, ArgPtrToMem, ArgConstSize}, Ret: RetInteger},
		{Name: "bpf_skb_change_proto", Since: "v4.9", CallGraphNodes: 140, Args: []ArgType{ArgPtrToCtx, ArgScalar, ArgScalar}, Ret: RetInteger},
		{Name: "bpf_skb_change_type", Since: "v4.9", CallGraphNodes: 10, Args: []ArgType{ArgPtrToCtx, ArgScalar}, Ret: RetInteger},
		{Name: "bpf_skb_under_cgroup", Since: "v4.9", CallGraphNodes: 35, Args: []ArgType{ArgPtrToCtx, ArgConstMapHandle, ArgScalar}, Ret: RetInteger},

		// v4.14 era.
		{Name: "bpf_probe_read_str", Since: "v4.14", CallGraphNodes: 28, Args: []ArgType{ArgPtrToUninitMem, ArgConstSize, ArgAnything}, Ret: RetInteger, Impl: implProbeReadStr},
		{Name: "bpf_get_socket_cookie", Since: "v4.14", CallGraphNodes: 22, Args: []ArgType{ArgAnything}, Ret: RetInteger, Impl: implGetSocketCookie},
		{Name: "bpf_get_numa_node_id", Since: "v4.14", CallGraphNodes: 2, Ret: RetInteger, Impl: implGetNumaNodeID},
		{Name: "bpf_xdp_adjust_head", Since: "v4.14", CallGraphNodes: 45, Args: []ArgType{ArgPtrToCtx, ArgScalar}, Ret: RetInteger},
		{Name: "bpf_sock_map_update", Since: "v4.14", CallGraphNodes: 180, Args: []ArgType{ArgPtrToCtx, ArgConstMapHandle, ArgPtrToMapKey, ArgScalar}, Ret: RetInteger},
		{Name: "bpf_msg_redirect_map", Since: "v4.14", CallGraphNodes: 160, Args: []ArgType{ArgPtrToCtx, ArgConstMapHandle, ArgScalar, ArgScalar}, Ret: RetInteger},

		// v4.20 era.
		{Name: "bpf_sk_lookup_tcp", Since: "v4.20", CallGraphNodes: 700, Args: []ArgType{ArgPtrToMem, ArgConstSize}, Ret: RetSockOrNull, AcquiresRef: true, Impl: implSkLookupTCP},
		{Name: "bpf_sk_lookup_udp", Since: "v4.20", CallGraphNodes: 650, Args: []ArgType{ArgPtrToMem, ArgConstSize}, Ret: RetSockOrNull, AcquiresRef: true, Impl: implSkLookupUDP},
		{Name: "bpf_sk_release", Since: "v4.20", CallGraphNodes: 90, Args: []ArgType{ArgPtrToSock}, Ret: RetInteger, ReleasesRef: true, Impl: implSkRelease},
		{Name: "bpf_xdp_adjust_tail", Since: "v4.20", CallGraphNodes: 50, Args: []ArgType{ArgPtrToCtx, ArgScalar}, Ret: RetInteger},
		{Name: "bpf_get_current_cgroup_id", Since: "v4.20", CallGraphNodes: 8, Ret: RetInteger},

		// v5.4 era.
		{Name: "bpf_spin_lock", Since: "v5.4", CallGraphNodes: 4, Args: []ArgType{ArgPtrToLock}, Ret: RetVoid, Impl: implSpinLock},
		{Name: "bpf_spin_unlock", Since: "v5.4", CallGraphNodes: 4, Args: []ArgType{ArgPtrToLock}, Ret: RetVoid, Impl: implSpinUnlock},
		{Name: "bpf_strtol", Since: "v5.4", CallGraphNodes: 15, Args: []ArgType{ArgPtrToMem, ArgConstSize, ArgScalar, ArgPtrToUninitMem}, Ret: RetInteger, Impl: implStrtol},
		{Name: "bpf_strtoul", Since: "v5.4", CallGraphNodes: 14, Args: []ArgType{ArgPtrToMem, ArgConstSize, ArgScalar, ArgPtrToUninitMem}, Ret: RetInteger, Impl: implStrtoul},
		{Name: "bpf_send_signal", Since: "v5.4", CallGraphNodes: 48, Args: []ArgType{ArgScalar}, Ret: RetInteger, Impl: implSendSignal},
		{Name: "bpf_sk_storage_get", Since: "v5.4", CallGraphNodes: 95, Args: []ArgType{ArgConstMapHandle, ArgPtrToSock, ArgAnything, ArgScalar}, Ret: RetMapValueOrNull},
		{Name: "bpf_sk_storage_delete", Since: "v5.4", CallGraphNodes: 75, Args: []ArgType{ArgConstMapHandle, ArgPtrToSock}, Ret: RetInteger},

		// v5.10 era.
		{Name: "bpf_jiffies64", Since: "v5.10", CallGraphNodes: 2, Ret: RetInteger, Impl: implJiffies64},
		{Name: "bpf_ringbuf_output", Since: "v5.10", CallGraphNodes: 55, Args: []ArgType{ArgConstMapHandle, ArgPtrToMem, ArgConstSize, ArgScalar}, Ret: RetInteger, Impl: implRingbufOutput},
		{Name: "bpf_ringbuf_reserve", Since: "v5.10", CallGraphNodes: 45, Args: []ArgType{ArgConstMapHandle, ArgConstSize, ArgScalar}, Ret: RetMemOrNull, AcquiresRef: true, Impl: implRingbufReserve},
		{Name: "bpf_ringbuf_submit", Since: "v5.10", CallGraphNodes: 20, Args: []ArgType{ArgAnything, ArgScalar}, Ret: RetVoid, ReleasesRef: true, Impl: implRingbufSubmit},
		{Name: "bpf_ringbuf_discard", Since: "v5.10", CallGraphNodes: 20, Args: []ArgType{ArgAnything, ArgScalar}, Ret: RetVoid, ReleasesRef: true, Impl: implRingbufDiscard},
		{Name: "bpf_task_storage_get", Since: "v5.10", CallGraphNodes: 85, Args: []ArgType{ArgConstMapHandle, ArgPtrToTask, ArgAnything, ArgScalar}, Ret: RetMapValueOrNull, Impl: implTaskStorageGet},
		{Name: "bpf_task_storage_delete", Since: "v5.10", CallGraphNodes: 70, Args: []ArgType{ArgConstMapHandle, ArgPtrToTask}, Ret: RetInteger},
		{Name: "bpf_get_task_stack", Since: "v5.10", CallGraphNodes: 150, Args: []ArgType{ArgPtrToTask, ArgPtrToUninitMem, ArgConstSize, ArgScalar}, Ret: RetInteger, Impl: implGetTaskStack},
		{Name: "bpf_d_path", Since: "v5.10", CallGraphNodes: 210, Args: []ArgType{ArgAnything, ArgPtrToUninitMem, ArgConstSize}, Ret: RetInteger},
		{Name: "bpf_copy_from_user", Since: "v5.10", CallGraphNodes: 42, Args: []ArgType{ArgPtrToUninitMem, ArgConstSize, ArgAnything}, Ret: RetInteger},
		{Name: "bpf_per_cpu_ptr", Since: "v5.10", CallGraphNodes: 6, Args: []ArgType{ArgAnything, ArgScalar}, Ret: RetMemOrNull},
		{Name: "bpf_this_cpu_ptr", Since: "v5.10", CallGraphNodes: 5, Args: []ArgType{ArgAnything}, Ret: RetInteger},
		{Name: "bpf_read_branch_records", Since: "v5.10", CallGraphNodes: 25, Args: []ArgType{ArgPtrToCtx, ArgPtrToUninitMem, ArgConstSize, ArgScalar}, Ret: RetInteger},
		{Name: "bpf_skc_to_tcp_sock", Since: "v5.10", CallGraphNodes: 15, Args: []ArgType{ArgPtrToSock}, Ret: RetSockOrNull},
		{Name: "bpf_skc_to_udp6_sock", Since: "v5.10", CallGraphNodes: 18, Args: []ArgType{ArgPtrToSock}, Ret: RetSockOrNull},

		// v5.15 era.
		{Name: "bpf_snprintf", Since: "v5.15", CallGraphNodes: 160, Args: []ArgType{ArgPtrToUninitMem, ArgConstSize, ArgPtrToMem, ArgPtrToMem, ArgConstSizeOrZero}, Ret: RetInteger},
		{Name: "bpf_for_each_map_elem", Since: "v5.15", CallGraphNodes: 95, Args: []ArgType{ArgConstMapHandle, ArgPtrToFunc, ArgAnything, ArgScalar}, Ret: RetInteger, Impl: implForEachMapElem},
		{Name: "bpf_timer_init", Since: "v5.15", CallGraphNodes: 65, Args: []ArgType{ArgPtrToMapValue, ArgConstMapHandle, ArgScalar}, Ret: RetInteger},
		{Name: "bpf_timer_set_callback", Since: "v5.15", CallGraphNodes: 40, Args: []ArgType{ArgPtrToMapValue, ArgPtrToFunc}, Ret: RetInteger},
		{Name: "bpf_timer_start", Since: "v5.15", CallGraphNodes: 55, Args: []ArgType{ArgPtrToMapValue, ArgScalar, ArgScalar}, Ret: RetInteger},
		{Name: "bpf_timer_cancel", Since: "v5.15", CallGraphNodes: 60, Args: []ArgType{ArgPtrToMapValue}, Ret: RetInteger},
		{Name: "bpf_sys_bpf", Since: "v5.15", CallGraphNodes: 4845, Args: []ArgType{ArgScalar, ArgPtrToUnion, ArgConstSize}, Ret: RetInteger, Impl: implSysBpf},
		{Name: "bpf_ima_inode_hash", Since: "v5.15", CallGraphNodes: 320, Args: []ArgType{ArgAnything, ArgPtrToUninitMem, ArgConstSize}, Ret: RetInteger},
		{Name: "bpf_sock_from_file", Since: "v5.15", CallGraphNodes: 12, Args: []ArgType{ArgAnything}, Ret: RetSockOrNull},
		{Name: "bpf_check_mtu", Since: "v5.15", CallGraphNodes: 55, Args: []ArgType{ArgPtrToCtx, ArgScalar, ArgPtrToUninitMem, ArgScalar, ArgScalar}, Ret: RetInteger},
		{Name: "bpf_get_func_ip", Since: "v5.15", CallGraphNodes: 8, Args: []ArgType{ArgPtrToCtx}, Ret: RetInteger},
		{Name: "bpf_get_attach_cookie", Since: "v5.15", CallGraphNodes: 6, Args: []ArgType{ArgPtrToCtx}, Ret: RetInteger},

		// v5.18 era.
		{Name: "bpf_strncmp", Since: "v5.18", CallGraphNodes: 2, Args: []ArgType{ArgPtrToMem, ArgConstSize, ArgPtrToMem}, Ret: RetInteger, Impl: implStrncmp},
		{Name: "bpf_loop", Since: "v5.18", CallGraphNodes: 18, Args: []ArgType{ArgScalar, ArgPtrToFunc, ArgAnything, ArgScalar}, Ret: RetInteger, Impl: implLoop},
		{Name: "bpf_find_vma", Since: "v5.18", CallGraphNodes: 380, Args: []ArgType{ArgPtrToTask, ArgScalar, ArgPtrToFunc, ArgAnything, ArgScalar}, Ret: RetInteger},
		{Name: "bpf_copy_from_user_task", Since: "v5.18", CallGraphNodes: 95, Args: []ArgType{ArgPtrToUninitMem, ArgConstSize, ArgAnything, ArgPtrToTask, ArgScalar}, Ret: RetInteger},

		// Post-5.18 (v6.1) — outside the Figure 3 universe.
		{Name: "bpf_kptr_xchg", Since: "v6.1", CallGraphNodes: 30, Args: []ArgType{ArgAnything, ArgAnything}, Ret: RetInteger},
		{Name: "bpf_dynptr_from_mem", Since: "v6.1", CallGraphNodes: 20, Args: []ArgType{ArgPtrToMem, ArgConstSize, ArgScalar, ArgAnything}, Ret: RetInteger},
		{Name: "bpf_dynptr_read", Since: "v6.1", CallGraphNodes: 25, Args: []ArgType{ArgPtrToUninitMem, ArgConstSize, ArgAnything, ArgScalar, ArgScalar}, Ret: RetInteger},
		{Name: "bpf_dynptr_write", Since: "v6.1", CallGraphNodes: 25, Args: []ArgType{ArgAnything, ArgScalar, ArgPtrToMem, ArgConstSize, ArgScalar}, Ret: RetInteger},
		{Name: "bpf_dynptr_data", Since: "v6.1", CallGraphNodes: 10, Args: []ArgType{ArgAnything, ArgScalar, ArgScalar}, Ret: RetMemOrNull},
		{Name: "bpf_ktime_get_tai_ns", Since: "v6.1", CallGraphNodes: 5, Ret: RetInteger},
		{Name: "bpf_user_ringbuf_drain", Since: "v6.1", CallGraphNodes: 85, Args: []ArgType{ArgConstMapHandle, ArgPtrToFunc, ArgAnything, ArgScalar}, Ret: RetInteger},
		{Name: "bpf_cgrp_storage_get", Since: "v6.1", CallGraphNodes: 90, Args: []ArgType{ArgConstMapHandle, ArgAnything, ArgAnything, ArgScalar}, Ret: RetMapValueOrNull},
		{Name: "bpf_cgrp_storage_delete", Since: "v6.1", CallGraphNodes: 72, Args: []ArgType{ArgConstMapHandle, ArgAnything}, Ret: RetInteger},
	}
}

// synthSubsystems and synthVerbs generate plausible names for the
// calibrated synthetic registry entries (see DESIGN.md: the full 249-helper
// population is reproduced in aggregate, anchored by the curated entries).
var (
	synthSubsystems = []string{"skb", "xdp", "sock", "task", "cgroup", "tcp", "lwt", "sysctl", "tunnel", "xfrm", "fib", "seq", "btf", "perf", "inode"}
	synthVerbs      = []string{"get", "set", "query", "adjust", "push", "pop", "attach", "lookup", "notify", "update", "probe", "classify"}
)

// NewRegistry builds the standard helper registry: the curated entries
// plus synthetic entries calibrated so that (a) the cumulative helper count
// per kernel version matches Figure 4 and (b) the call-graph size
// distribution over the v5.18 universe matches Figure 3.
func NewRegistry() *Registry {
	specs := known()

	// Fill era quotas with synthetic helpers.
	perEra := make(map[string]int)
	for _, s := range specs {
		perEra[s.Since]++
	}
	cum := 0
	synthIdx := 0
	for _, era := range Eras {
		cum += perEra[era.Version]
		target := eraTargets[era.Version]
		for cum < target {
			name := fmt.Sprintf("bpf_%s_%s%d",
				synthSubsystems[synthIdx%len(synthSubsystems)],
				synthVerbs[(synthIdx/len(synthSubsystems))%len(synthVerbs)],
				synthIdx)
			specs = append(specs, Spec{
				Name:  name,
				Since: era.Version,
				Args:  []ArgType{ArgPtrToCtx, ArgScalar},
				Ret:   RetInteger,
			})
			perEra[era.Version]++
			synthIdx++
			cum++
		}
	}

	assignCallGraphSizes(specs)

	r := &Registry{byName: make(map[string]*Spec)}
	for i := range specs {
		s := &specs[i]
		s.ID = ID(i + 1)
		r.add(s)
	}
	return r
}

// assignCallGraphSizes gives every synthetic helper in the v5.18 universe a
// call-graph size such that the band quotas of Figure 3 hold exactly.
func assignCallGraphSizes(specs []Spec) {
	var have500, have30to499 int
	var synth []int // indexes of v5.18-universe synthetic helpers
	universe := 0
	for i := range specs {
		if !VersionAtMost(specs[i].Since, "v5.18") {
			if specs[i].CallGraphNodes == 0 {
				specs[i].CallGraphNodes = 40 // post-universe synthetics: nominal
			}
			continue
		}
		universe++
		switch n := specs[i].CallGraphNodes; {
		case n >= 500:
			have500++
		case n >= 30:
			have30to499++
		case n == 0:
			synth = append(synth, i)
		}
	}
	need500 := fig3AtLeast500 - have500
	need30 := (fig3AtLeast30 - fig3AtLeast500) - have30to499
	if need500 < 0 || need30 < 0 || need500+need30 > len(synth) {
		panic(fmt.Sprintf("helpers: figure-3 quotas unsatisfiable: need500=%d need30=%d synth=%d universe=%d",
			need500, need30, len(synth), universe))
	}
	logSpread := func(lo, hi float64, i, n int) int {
		if n <= 1 {
			return int(lo)
		}
		f := float64(i) / float64(n-1)
		return int(math.Round(math.Exp(math.Log(lo) + f*(math.Log(hi)-math.Log(lo)))))
	}
	idx := 0
	for i := 0; i < need500; i++ {
		specs[synth[idx]].CallGraphNodes = logSpread(500, fig3SynthMax500, i, need500)
		idx++
	}
	for i := 0; i < need30; i++ {
		specs[synth[idx]].CallGraphNodes = logSpread(30, 499, i, need30)
		idx++
	}
	rest := len(synth) - idx
	for i := 0; i < rest; i++ {
		specs[synth[idx]].CallGraphNodes = logSpread(1, 29, i, rest)
		idx++
	}
}

// Register appends a helper to the registry and returns its assigned ID.
// The safext runtime uses it to install the trusted kernel-crate entry
// points alongside the standard helpers.
func (r *Registry) Register(spec Spec) ID {
	if _, exists := r.byName[spec.Name]; exists {
		panic(fmt.Sprintf("helpers: duplicate registration of %q", spec.Name))
	}
	s := spec
	s.ID = ID(len(r.ordered) + 1)
	r.add(&s)
	return s.ID
}

// RegisterAt installs a helper at an explicit ID (outside the sequential
// space), as the safext kernel crate does with its stable entry points.
// Registering over an occupied ID or name, or at an ID below 1, panics.
func (r *Registry) RegisterAt(id ID, spec Spec) ID {
	if id < 1 {
		panic(fmt.Sprintf("helpers: registration at invalid id %d", id))
	}
	if _, exists := r.ByID(id); exists {
		panic(fmt.Sprintf("helpers: duplicate registration at id %d", id))
	}
	if _, exists := r.byName[spec.Name]; exists {
		panic(fmt.Sprintf("helpers: duplicate registration of %q", spec.Name))
	}
	s := spec
	s.ID = id
	r.add(&s)
	return id
}

// add installs s at its ID, growing the table to reach it.
func (r *Registry) add(s *Spec) {
	s.slot = new(callSlot)
	if int(s.ID) >= len(r.byID) {
		r.byID = append(r.byID, make([]*Spec, int(s.ID)+1-len(r.byID))...)
	}
	r.byID[s.ID] = s
	r.byName[s.Name] = s
	r.ordered = append(r.ordered, s)
}

// ByID resolves a helper by call immediate.
func (r *Registry) ByID(id ID) (*Spec, bool) {
	if uint64(id) >= uint64(len(r.byID)) {
		return nil, false
	}
	s := r.byID[id]
	return s, s != nil
}

// ByName resolves a helper by name.
func (r *Registry) ByName(name string) (*Spec, bool) {
	s, ok := r.byName[name]
	return s, ok
}

// All returns every helper in ID order.
func (r *Registry) All() []*Spec { return r.ordered }

// CountAt returns the number of helpers present at the given kernel
// version — one point of the Figure 4 series.
func (r *Registry) CountAt(version string) int {
	n := 0
	for _, s := range r.ordered {
		if VersionAtMost(s.Since, version) {
			n++
		}
	}
	return n
}

// GrowthSeries returns (version, year, cumulative count) for every era:
// the Figure 4 data.
type GrowthPoint struct {
	Version string
	Year    int
	Count   int
}

// GrowthSeries computes the Figure 4 series from the registry.
func (r *Registry) GrowthSeries() []GrowthPoint {
	out := make([]GrowthPoint, 0, len(Eras))
	for _, era := range Eras {
		out = append(out, GrowthPoint{Version: era.Version, Year: era.Year, Count: r.CountAt(era.Version)})
	}
	return out
}

// CallGraphSpecs returns the Figure 3 population: every helper present in
// v5.18 with its call-graph size, sorted by name for determinism.
func (r *Registry) CallGraphSpecs() []callgraph.HelperSpec {
	var out []callgraph.HelperSpec
	for _, s := range r.ordered {
		if VersionAtMost(s.Since, "v5.18") {
			out = append(out, callgraph.HelperSpec{Name: s.Name, Size: s.CallGraphNodes})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
