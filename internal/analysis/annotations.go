// The annotation table: the declarative registry that scopes the
// dataflow checks to the engine structures whose invariants they
// enforce. docs/LINT.md ("Annotation table") and DESIGN.md link here.
//
// The table is code, reviewed like code. Every entry is validated
// against the type-checked package it names — a renamed struct, field,
// or function makes the stale entry itself a diagnostic, so the table
// cannot silently rot out of sync with the engine.
package analysis

import "go/types"

// ---------------------------------------------------------------------
// heapkey annotations.

// heapKeySpec registers the ordering-key fields of one heap-organized
// struct. Writes to a key field are only legal inside methods of Owner
// (the heap's push/pop/fix/sift call chain) or in the explicitly listed
// AllowIn functions — everywhere else a write can silently corrupt heap
// order without failing a test.
type heapKeySpec struct {
	Pkg    string   // import path the entry applies to
	Struct string   // struct type whose fields are ordering keys
	Fields []string // the key fields
	Owner  string   // heap type; all its methods may write the keys
	// AllowIn lists additional "Recv.Method" / "Func" names allowed to
	// write (constructors that stamp keys before insertion, and
	// update-then-Fix protocols). Keep each entry justified by Why.
	AllowIn []string
	Why     string
}

// heapKeyTable registers the event-driven engine's heaps (the indexed
// PD² ready-heap and the six calendar heaps share two key structs; the
// enact and resolve calendars also index their tasks) and the self-test
// fixture. Keep in sync with docs/LINT.md.
var heapKeyTable = []heapKeySpec{
	{
		Pkg:     "repro/internal/core",
		Struct:  "tevent",
		Fields:  []string{"at", "seq"},
		Owner:   "eventHeap",
		AllowIn: []string{"Scheduler.pushEvent"},
		Why:     "calendar entries are ordered by (at, seq); pushEvent stamps seq before insertion, a lazy calendar's entries are immutable afterwards, and an indexed calendar re-keys a task's one entry only in eventHeap.set, which re-fixes the heap",
	},
	{
		Pkg:    "repro/internal/core",
		Struct: "taskState",
		Fields: []string{"calIdx"},
		Owner:  "eventHeap",
		Why:    "calIdx is the task's slot in the indexed enact and resolve calendars; only eventHeap's set, swap and popDue move entries, so only they may write it",
	},
	{
		Pkg:     "repro/internal/core",
		Struct:  "subtask",
		Fields:  []string{"deadline", "bbit", "groupDeadline"},
		Owner:   "readyHeap",
		AllowIn: []string{"Scheduler.release"},
		Why:     "PD² priority fields are fixed at release (Sec. 3.2) before the record can be offered to the ready heap",
	},
	{
		Pkg:     "repro/internal/core",
		Struct:  "taskState",
		Fields:  []string{"offer", "readyIdx"},
		Owner:   "readyHeap",
		AllowIn: []string{"Scheduler.updateOffer"},
		Why:     "offer is the ready-heap comparator input and readyIdx its index slot; updateOffer recomputes offer and immediately re-fixes membership",
	},
	// Fixture entries (internal/analysis/testdata/src/heapkey).
	{
		Pkg:     "repro/internal/analysis/testdata/src/heapkey",
		Struct:  "item",
		Fields:  []string{"key", "idx", "slots"},
		Owner:   "minheap",
		AllowIn: []string{"rekey"},
		Why:     "fixture: rekey updates the key and immediately fixes the heap",
	},
}

// heapKeySpecsFor returns the table entries applying to pkgPath.
func heapKeySpecsFor(pkgPath string) []heapKeySpec {
	var out []heapKeySpec
	for _, s := range heapKeyTable {
		if s.Pkg == pkgPath {
			out = append(out, s)
		}
	}
	return out
}

// ---------------------------------------------------------------------
// ownxfer annotations: the pooled-record table.

// poolSink is a long-lived struct that may hold a pooled pointer only
// together with its reuse stamp: a composite literal that sets PtrField
// must also set StampField (from the pointer's own stamp), so a stale
// entry is detectable at pop time.
type poolSink struct {
	Struct     string
	PtrField   string
	StampField string
}

// ownXferFunc registers one in-package function or method through which
// ownership of a pooled record leaves (or returns to) the caller. A
// plain entry is an unconditional transfer: after the call the caller
// owns none of the pooled arguments it passed. A Cond entry transfers
// conditionally: the callee reports the outcome through the bool result
// at index BoolResult, and the caller still owns the record iff that
// bool equals OwnerWhen (ownxfer refines the state along the true/false
// edges of a branch on that result).
type ownXferFunc struct {
	Func       string // "Recv.Method" / "Func" name, as in funcInfo.Name
	Cond       bool   // outcome-dependent transfer
	BoolResult int    // index of the bool result reporting the outcome
	OwnerWhen  bool   // caller still owns the record iff the bool equals this
	Why        string
}

// ownXferSpec registers one free-list pool and the protocol of its
// record type: where owned records are born (Acquire) and die
// (Release), the functions that move ownership across a goroutine or
// call boundary (Transfers), and the only places a record may be
// parked — an owner field, or a sink struct together with its stamp.
// ownxfer verifies that after a record is sent into a channel, handed
// to a Transfers function, or released, no path in the sender reads,
// writes or re-frees it, that every acquire->release path disposes of
// the record exactly once, and that a freshly acquired record never
// escapes into a field, container or closure that outlives the slot.
type ownXferSpec struct {
	Pkg        string
	Elem       string // pooled record type
	Acquire    string // function whose call result is a fresh owned record
	Release    string // function retiring an owned record to the pool
	StampField string // reuse-generation field on Elem
	Transfers  []ownXferFunc
	Sinks      []poolSink
	// OwnerFields lists "Type.field" stores that are the ownership
	// structure itself (the task's subtask chain, the pool's free list):
	// they are retired through Release and therefore need no stamp.
	OwnerFields []string
	Why         string
}

// ownerXferTable registers the mailbox wire path, the scheduler's
// subtask pool, and the self-test fixtures. Keep in sync with
// docs/LINT.md.
var ownerXferTable = []ownXferSpec{
	{
		Pkg:        "repro/internal/serve",
		Elem:       "pending",
		Acquire:    "newPending",
		Release:    "freePending",
		StampField: "stamp",
		Transfers: []ownXferFunc{
			{Func: "Shard.submit", Cond: true, BoolResult: 0, OwnerWhen: false,
				Why: "true means the record entered the mailbox and the shard goroutine owns it until the reply is sent; false means the mailbox was full and the caller still holds it"},
			{Func: "Server.exchange", Cond: true, BoolResult: 1, OwnerWhen: true,
				Why: "ok means the round trip completed and the handler owns the record again; on !ok exchange has already freed it or left it with the draining shard"},
			{Func: "Server.exchangeErr",
				Why: "the in-process exchange consumes the record on every path: replies carry fresh copies so it frees the record itself, or abandons it to the draining shard"},
			{Func: "Shard.handle",
				Why: "replies on the record's channel, handing ownership back to the blocked submitter"},
		},
		OwnerFields: []string{
			"pendingPool.free", // the free list
		},
		Why: "pooled pending records cross the handler/shard goroutine boundary twice per request and are recycled across requests; a sender touching a record after handing it off races the shard, and a handler touching it after freePending sees the stamp bump, either way breaking byte-exact replay",
	},
	{
		Pkg:        "repro/internal/core",
		Elem:       "subtask",
		Acquire:    "newSubtask",
		Release:    "freeSubtask",
		StampField: "stamp",
		// No Transfers: subtask records never cross a goroutine; they are
		// parked in the owning chain or freed.
		Sinks: []poolSink{
			{Struct: "tevent", PtrField: "sub", StampField: "stamp"},
		},
		OwnerFields: []string{
			"taskState.lastReleased", // head of the one-generation chain
			"taskState.live",         // I_SW live set, trimmed by syncAccrual
			"taskState.history",      // RecordSubtasks mode: records are never freed
			"taskState.retired",      // one-release grace slot before freeSubtask
			"subtask.prev",           // the chain link itself
			"Scheduler.subPool",      // the free list
		},
		Why: "subtask records are recycled through the scheduler free list and calendar events outlive slots; only stamped tevents and the owning chain may hold them, and releasing one twice or touching it after freeSubtask corrupts a later task's schedule",
	},
	// Fixture entry (internal/analysis/testdata/src/ownxfer).
	{
		Pkg:        "repro/internal/analysis/testdata/src/ownxfer",
		Elem:       "rec",
		Acquire:    "get",
		Release:    "put",
		StampField: "stamp",
		Transfers: []ownXferFunc{
			{Func: "svc.post", Cond: true, BoolResult: 0, OwnerWhen: false,
				Why: "fixture: conditional mailbox submit"},
			{Func: "consume",
				Why: "fixture: unconditional hand-off"},
		},
		Why: "fixture: miniature mailbox protocol with a reply channel",
	},
	// Fixture entry (internal/analysis/testdata/src/poolescape).
	{
		Pkg:        "repro/internal/analysis/testdata/src/poolescape",
		Elem:       "rec",
		Acquire:    "alloc",
		Release:    "free",
		StampField: "stamp",
		Sinks: []poolSink{
			{Struct: "event", PtrField: "sub", StampField: "stamp"},
		},
		OwnerFields: []string{"owner.last", "owner.live", "owner.pool"},
		Why:         "fixture: miniature subtask pool with reuse stamps",
	},
}

// ownXferSpecsFor returns the table entries applying to pkgPath.
func ownXferSpecsFor(pkgPath string) []ownXferSpec {
	var out []ownXferSpec
	for _, s := range ownerXferTable {
		if s.Pkg == pkgPath {
			out = append(out, s)
		}
	}
	return out
}

// ---------------------------------------------------------------------
// detflow annotations: the replayable command surface.

// replaySinkSpec registers the functions of one package that form the
// replayable command surface: everything that feeds them must be
// deterministic, because a replay re-executes the logged commands and
// compares state digests byte for byte.
type replaySinkSpec struct {
	Pkg   string
	Funcs []string // "Recv.Method" / "Func" names, as in funcInfo.Name
	Why   string
}

// replaySinkTable registers the engine's command surface and the
// self-test fixture. Keep in sync with docs/LINT.md.
var replaySinkTable = []replaySinkSpec{
	{
		Pkg: "repro/internal/core",
		Funcs: []string{
			"Scheduler.Apply",
			"Scheduler.ReplayLog",
			"Replay",
			"Scheduler.WriteState",
			"Scheduler.StateDigest",
		},
		Why: "Apply/ReplayLog/Replay re-execute the command log and WriteState/StateDigest certify the result; a wall-clock read or unseeded draw on any path into them breaks bit-exact replay (ROADMAP item 4)",
	},
	// Fixture entry (internal/analysis/testdata/src/detflow).
	{
		Pkg:   "repro/internal/analysis/testdata/src/detflow",
		Funcs: []string{"Apply", "Digest", "Stamp"},
		Why:   "fixture: miniature command log with a digest",
	},
}

// replaySinkSpecsFor returns the table entries applying to pkgPath.
func replaySinkSpecsFor(pkgPath string) []replaySinkSpec {
	var out []replaySinkSpec
	for _, s := range replaySinkTable {
		if s.Pkg == pkgPath {
			out = append(out, s)
		}
	}
	return out
}

// isReplaySink reports whether the qualified name ("importpath.Recv.
// Method") is a registered replay sink.
func isReplaySink(qname string) bool {
	for _, s := range replaySinkTable {
		for _, f := range s.Funcs {
			if qname == s.Pkg+"."+f {
				return true
			}
		}
	}
	return false
}

// isReplaySinkObj is isReplaySink for a callee resolved outside the
// current run (a partial-module invocation still tracks calls into the
// registered surface).
func isReplaySinkObj(obj *types.Func) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	name := obj.Name()
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		if rn := recvBareName(sig); rn != "" {
			name = rn + "." + name
		}
	}
	return isReplaySink(obj.Pkg().Path() + "." + name)
}

// ---------------------------------------------------------------------
// hotalloc annotations: externals proven allocation-free.

// allocFreeTable lists callees outside the lint run (standard library)
// that hotalloc accepts on a //lint:noalloc path. Keys are
// "importpath.Func" or "importpath.Recv.Method" (pointer receivers
// without the star). Keep every entry justified: an entry here is a
// trusted axiom the check cannot verify.
var allocFreeTable = map[string]string{
	"strconv.AppendInt":               "appends into the caller's buffer; allocates only on growth, amortized by reuse",
	"strconv.AppendUint":              "appends into the caller's buffer; allocates only on growth, amortized by reuse",
	"sync.Mutex.Lock":                 "uncontended fast path is a CAS; never allocates",
	"sync.Mutex.Unlock":               "atomic store; never allocates",
	"sync.RWMutex.RLock":              "atomic counter; never allocates",
	"sync.RWMutex.RUnlock":            "atomic counter; never allocates",
	"math/bits.Mul64":                 "compiler intrinsic; pure register arithmetic",
	"math/bits.TrailingZeros64":       "compiler intrinsic (TZCNT/BSF); pure register arithmetic",
	"sort.Search":                     "binary search over caller state; no allocation",
	"sync/atomic.Int64.Add":           "hardware atomic; never allocates",
	"sync/atomic.Int64.Load":          "hardware atomic; never allocates",
	"sync/atomic.Int64.Store":         "hardware atomic; never allocates",
	"sync/atomic.Uint64.Add":          "hardware atomic; never allocates",
	"sync/atomic.Uint64.Load":         "hardware atomic; never allocates",
	"sync/atomic.Pointer.Load":        "hardware atomic on a pointer slot; never allocates",
	"sync/atomic.Pointer.Store":       "hardware atomic on a pointer slot; never allocates",
	"errors.Is":                       "walks the existing error chain; allocates nothing",
	"errors.As":                       "walks the existing error chain into a caller-owned target; allocates nothing",
	"bytes.Equal":                     "byte comparison over caller buffers; never allocates",
	"bytes.IndexByte":                 "vectorized scan over a caller buffer; never allocates",
	"unicode/utf8.DecodeRune":         "pure decode of a caller buffer; never allocates",
	"unicode/utf8.DecodeRuneInString": "pure decode of a caller string; never allocates",
	"unicode/utf8.EncodeRune":         "writes into the caller's buffer; never allocates",
	"unicode/utf8.AppendRune":         "appends into the caller's buffer; growth is the caller's amortized pool",
	"bytes.TrimSpace":                 "returns a subslice of the caller's buffer; never allocates",
	"unicode/utf8.RuneLen":            "pure computation; never allocates",
	"unicode/utf16.DecodeRune":        "pure surrogate-pair arithmetic; never allocates",
	"unicode/utf16.IsSurrogate":       "pure range test; never allocates",
}

// isAllocFree reports whether a callee outside the run is a registered
// allocation-free axiom.
func isAllocFree(obj *types.Func) bool {
	key := externKey(obj)
	if key == "" {
		return false
	}
	_, ok := allocFreeTable[key]
	return ok
}

// ---------------------------------------------------------------------
// Table validation (shared by heapkey and ownxfer).

// lookupStruct resolves a package-scope struct type by name.
func lookupStruct(pkg *types.Package, name string) (*types.Struct, bool) {
	obj := pkg.Scope().Lookup(name)
	if obj == nil {
		return nil, false
	}
	tn, ok := obj.(*types.TypeName)
	if !ok {
		return nil, false
	}
	st, ok := tn.Type().Underlying().(*types.Struct)
	return st, ok
}

// structHasField reports whether the named struct has the field.
func structHasField(st *types.Struct, field string) bool {
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == field {
			return true
		}
	}
	return false
}

// hasFuncNamed reports whether the package declares a function or
// method matching a "Recv.Method" / "Func" table name.
func hasFuncNamed(p *Pass, name string) bool {
	for _, fi := range p.Funcs() {
		if fi.Name == name {
			return true
		}
	}
	return false
}

// typeDeclared reports whether the package scope declares a type name.
func typeDeclared(pkg *types.Package, name string) bool {
	obj := pkg.Scope().Lookup(name)
	_, ok := obj.(*types.TypeName)
	return ok
}
