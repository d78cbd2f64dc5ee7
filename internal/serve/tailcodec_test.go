package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/frac"
	"repro/internal/model"
	"repro/internal/stats"
)

// tailRef is Tail without its JSON methods: encoding/json walks it by
// reflection, so it is the reference the tail codec must agree with,
// and no test here compares the codec with itself.
type tailRef Tail

// tailNamePieces build names that exercise every escaping branch of
// the encoder and every string path of the decoder: quotes and
// backslashes, HTML characters, control bytes, invalid UTF-8 (which
// both sides write as U+FFFD), U+2028/U+2029 and non-ASCII.
var tailNamePieces = []string{"T", "a", `"`, `\`, "<", ">", "&", "\x01", "\b", "\f", "\t", "\xff", "\xe6\x97", "\u2028", "\u2029", "é", "日本", "😀", "K", "ſ"}

// checkTailEncoding requires MarshalJSON to write encoding/json's bytes
// for the tail, or both to fail, and EncodeTail to write json.Encoder's.
// It returns the encoding, nil when both failed.
func checkTailEncoding(tb testing.TB, tl *Tail) []byte {
	tb.Helper()
	want, werr := json.Marshal((*tailRef)(tl))
	got, gerr := tl.MarshalJSON()
	if (gerr != nil) != (werr != nil) {
		tb.Fatalf("codec error %v, encoding/json error %v", gerr, werr)
	}
	if werr != nil {
		return nil
	}
	if !bytes.Equal(got, want) {
		tb.Fatalf("codec encoding differs from encoding/json\ncodec %q\njson  %q", got, want)
	}
	var enc bytes.Buffer
	if err := EncodeTail(&enc, tl); err != nil {
		tb.Fatal(err)
	}
	if !bytes.Equal(enc.Bytes(), append(want, '\n')) {
		tb.Fatalf("EncodeTail differs from json.Encoder\n got %.300q\nwant %.300q", enc.Bytes(), want)
	}
	return want
}

// checkTailDecoding decodes data with the codec and with encoding/json
// and requires the same outcome: both fail, or both give the same tail.
// Each side first decodes start (when not nil) with encoding/json, so
// data decodes into a tail that already holds values, and into slices
// with stale elements past their length. Where encoding/json fails,
// only the failure is compared: it may be a syntax error, a type error
// or a rational or op that does not parse, and the messages differ.
func checkTailDecoding(tb testing.TB, data, start []byte) {
	tb.Helper()
	var got, viaJSON Tail // viaJSON takes json.Unmarshal's route to the codec
	var want tailRef
	if start != nil {
		for _, v := range []any{(*tailRef)(&got), (*tailRef)(&viaJSON), &want} {
			if err := json.Unmarshal(start, v); err != nil {
				tb.Fatal(err)
			}
		}
	}
	gerr := got.UnmarshalJSON(data)
	werr := json.Unmarshal(data, &want)
	verr := json.Unmarshal(data, &viaJSON)
	if (gerr != nil) != (werr != nil) || (verr != nil) != (werr != nil) {
		tb.Fatalf("input %.400q:\ncodec error         %v\nvia json.Unmarshal  %v\nencoding/json error %v", data, gerr, verr, werr)
	}
	if werr != nil {
		return
	}
	if !reflect.DeepEqual(got, Tail(want)) {
		tb.Fatalf("input %.400q:\ncodec         %+v\nencoding/json %+v", data, got, want)
	}
	if !reflect.DeepEqual(viaJSON, Tail(want)) {
		tb.Fatalf("input %.400q:\nvia json.Unmarshal %+v\nencoding/json      %+v", data, viaJSON, want)
	}
}

// churnName builds a fresh name from the escaping pieces.
func churnName(r *stats.RNG, n int) string {
	var b strings.Builder
	for k := 1 + r.Intn(3); k > 0; k-- {
		b.WriteString(tailNamePieces[r.Intn(len(tailNamePieces))])
	}
	fmt.Fprintf(&b, "%d", n)
	return b.String()
}

// churnTails runs one shard through random churn (joins with and
// without groups, reweights up and down, leaves, heavy joins that
// condition J holds, and, under early release, leaves that rule L
// holds) and cuts tails as it goes, with a batch staged, from 0,
// mid-log and the log end. It also counts the cuts taken while the
// engine held a join and while it held a leave.
func churnTails(tb testing.TB, seed uint64) (tails []*Tail, heldJoins, heldLeaves int) {
	tb.Helper()
	cfg := ShardConfig{M: 2, Policy: "hybrid", OIThreshold: frac.New(1, 8), EarlyRelease: seed%2 == 0, DriftBound: frac.New(1, 4)}
	sh, err := newShard(int(seed%3), cfg, 8)
	if err != nil {
		tb.Fatal(err)
	}
	r := stats.NewStream(seed, 27)
	var names []string
	for slot := 0; slot < 30; slot++ {
		for k := r.Intn(7); k > 0; k-- {
			c := wireCmd{Command: core.Command{Weight: frac.New(int64(1+r.Intn(8)), 16)}}
			switch op := r.Intn(7); {
			case op < 2 || len(names) == 0:
				name := churnName(r, len(names))
				names = append(names, name)
				c.Op, c.raw = core.OpJoin, []byte(name)
				if r.Intn(2) == 0 {
					c.Group = tailNamePieces[r.Intn(len(tailNamePieces))]
				}
			case op < 5:
				c.Op, c.raw = core.OpReweight, []byte(names[r.Intn(len(names))])
			default:
				c.Op, c.raw, c.Weight = core.OpLeave, []byte(names[r.Intn(len(names))]), frac.Rat{}
			}
			sh.admit(&c)
		}
		if slot%3 == 2 {
			if sh.eng.JoinQueue() > 0 {
				heldJoins++
			}
			if sh.eng.Live().Leaving > 0 {
				heldLeaves++
			}
			n := sh.log.len()
			for _, from := range []int{0, n / 2, n} {
				tl, err := sh.tail(from, 0)
				if err != nil {
					tb.Fatal(err)
				}
				tails = append(tails, tl)
			}
		}
		sh.advance(1)
	}
	return tails, heldJoins, heldLeaves
}

// withSeedAndArgs is tl with what a live shard's tail does not carry: a
// seed with tasks, commands with an arg, names with invalid UTF-8,
// which the wire decoder would have replaced, and the book entries and
// deferred leaves older tails carried.
func withSeedAndArgs(tl *Tail) *Tail {
	c := *tl
	c.Seed = model.System{M: 3, Tasks: []model.Spec{
		{Name: "s<1>", Weight: frac.New(1, 3), Group: "g\u2028"},
		{Name: "bad\xff\x00", Weight: frac.New(2, 5), Join: 4},
	}}
	c.Commands = append(append([]core.Command(nil), tl.Commands...),
		core.Command{At: 7, Op: core.OpDelay, Task: "s<1>", Arg: 3},
		core.Command{At: 9, Op: core.OpAbsent, Task: "bad\xff\x00", Arg: -2, Group: "\xe6"})
	c.Admission = &admissionState{
		Names:     []string{"\u2029&", "o<k>\xff"},
		Requested: []taskWeight{{Task: "o<k>\xff", Weight: frac.New(1, 5)}},
		Pending:   []string{"o<k>\xff"},
		Leaving:   []string{"\u2029&"},
	}
	c.DeferredLeaves = []string{"old\"leave"}
	return &c
}

// TestTailCodecAgreesWithEncodingJSON: on tails cut from live shards
// under churn, and on those tails with a seed, arg commands and invalid
// UTF-8 added, the codec writes encoding/json's bytes, and decodes
// those bytes, their indented form and their merge into another tail as
// encoding/json does.
func TestTailCodecAgreesWithEncodingJSON(t *testing.T) {
	var held, leaving, grouped int
	var prev []byte
	for seed := uint64(1); seed <= 4; seed++ {
		tails, heldJoins, heldLeaves := churnTails(t, seed)
		held += heldJoins
		leaving += heldLeaves
		for _, tl := range tails {
			for _, c := range tl.Commands {
				if c.Group != "" {
					grouped++
				}
			}
			for _, v := range []*Tail{tl, withSeedAndArgs(tl)} {
				data := checkTailEncoding(t, v)
				checkTailDecoding(t, data, nil)
				checkTailDecoding(t, data, prev)
				var ind bytes.Buffer
				if err := json.Indent(&ind, data, "", " "); err != nil {
					t.Fatal(err)
				}
				checkTailDecoding(t, ind.Bytes(), nil)
				prev = data
			}
		}
	}
	if held == 0 || leaving == 0 || grouped == 0 {
		t.Fatalf("churn cut no tail with a held join (%d), a held leave (%d) or a grouped join (%d)", held, leaving, grouped)
	}
}

// TestCutCarriesNoBooks: every tail a shard cuts under churn, complete
// or not, is the current version, carries no book entries, and encodes
// with no admission key; its books digest is its batch's.
func TestCutCarriesNoBooks(t *testing.T) {
	tails, _, _ := churnTails(t, 2)
	for _, tl := range tails {
		data, err := tl.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if tl.Version != tailVersion || tl.Admission != nil || bytes.Contains(data, []byte(`"admission"`)) {
			t.Fatalf("cut from %d is version %d with books %+v: %.300s", tl.From, tl.Version, tl.Admission, data)
		}
		if tl.BooksDigest != batchDigest(tl.Batch) {
			t.Fatalf("cut from %d has books digest %016x, its batch's is %016x", tl.From, tl.BooksDigest, batchDigest(tl.Batch))
		}
	}
}

// TestTailFixturesDecodeIdentically: the version-2, version-3 and
// version-4 snapshot fixtures decode with the codec as with
// encoding/json, and the codec's decode restores to the fixture's
// digests.
func TestTailFixturesDecodeIdentically(t *testing.T) {
	for _, file := range []string{"testdata/snapshot_v2.json", "testdata/snapshot_v3.json", "testdata/snapshot_v4.json"} {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		checkTailDecoding(t, data, nil)
		var snap Snapshot
		if err := snap.UnmarshalJSON(data); err != nil {
			t.Fatal(err)
		}
		if _, err := restoreShard(&snap, 8); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
	}
}

// tailCodecCorpus holds inputs the decoder's rules single out: key
// folding (the Kelvin sign and the long s fold to k and s), duplicate
// keys and objects, null, type errors, bad rationals and ops, numbers
// that do not fit, and malformed JSON.
var tailCodecCorpus = []string{
	`null`,
	`{}`,
	` {"version":4} `,
	`{"VERSION":4,"Shard":2,"CONFIG":{"M":2,"POLICY":"lj"}}`,
	"{\"ſhard\":3,\"config\":{\"m\":1}}",
	"{\"log\":[{\"at\":1,\"op\":\"join\",\"tas\u212a\":\"x\",\"weight\":\"1/2\"}]}",
	`{"config":{"m":2},"config":{"policy":"lj"}}`,
	`{"log":[{"at":1,"op":"join","task":"a","weight":"1/2"},{"at":2,"op":"leave","task":"b","weight":"0"}],"log":[{"at":5}]}`,
	`{"log":[{"at":1,"op":"join","task":"a","weight":"1/2"}],"log":[]}`,
	`{"log":[{"at":1}],"log":null}`,
	`{"log":[null,{"op":null,"task":null,"weight":null,"group":null,"at":null,"arg":null}]}`,
	`{"log":[{"op":"bogus","op":"join"}]}`,
	`{"log":[{"weight":"x","weight":"1/2"}]}`,
	`{"log":[{"at":"x","at":5}]}`,
	`{"log":[{"at":1.5}]}`,
	`{"log":[{"at":1e3}]}`,
	`{"log":[{"arg":-0}]}`,
	`{"log":[{"at":9223372036854775808}]}`,
	`{"digest":18446744073709551615,"books_digest":0}`,
	`{"digest":18446744073709551616}`,
	`{"digest":-0}`,
	`{"digest":-1}`,
	`{"now":-9223372036854775808}`,
	`{"config":{"oi_threshold":"1/0"}}`,
	`{"config":{"oi_threshold":" 1/8 ","drift_bound":"+2"}}`,
	`{"config":{"oi_threshold":1}}`,
	`{"config":{"early_release":true,"record_schedule":false,"early_release":null}}`,
	`{"config":{"early_release":"true"}}`,
	`{"config":[]}`,
	`{"seed":{"M":2,"Tasks":[{"Name":"a","Weight":"1/2","Join":3,"Group":"g","x":[{}]}]}}`,
	`{"seed":{"m":2,"tasks":[{"name":"a","weight":"1/3"},null]}}`,
	`{"admission":{"names":["a",null,"b"],"requested":[{"task":"a","weight":"1/2"}],"pending_joins":[],"leaving":null}}`,
	`{"admission":{"names":["a","b"]},"admission":{"names":[null]}}`,
	`{"admission":{"requested":[{"task":"a","weight":"1/2"},{"task":"b"}]},"admission":{"requested":[{},{},{}]}}`,
	`{"batch":[{"at":1,"op":"reweight","task":"a","weight":"1/4","group":"g"}],"deferred_joins":[],"deferred_leaves":["x"]}`,
	`{"unknown":{"deep":[1,2,{"y":null}],"f":-1.5e-3,"t":true},"version":2}`,
	`{"log":[{"at":1,"op":"join","task":"\u0041\n\t\"\\\/\ud83d\ude00\ud800","weight":"1/2"}]}`,
	"{\"log\":[{\"at\":1,\"op\":\"join\",\"task\":\"raw\xff\xfe\",\"weight\":\"1/2\"}]}",
	"{\"\\u0076ersion\":3}",
	`[]`,
	`"tail"`,
	`5`,
	``,
	`{"version":4`,
	`{"version":4} x`,
	`{"version":4,}`,
	`{null:4}`,
	`{"log":[{"at":1},]}`,
	`{"log":[{"at":01}]}`,
	`{"version":4,"version":"4"}`,
}

func TestTailDecodeCorpus(t *testing.T) {
	for _, in := range tailCodecCorpus {
		checkTailDecoding(t, []byte(in), nil)
		checkTailDecoding(t, []byte(in), []byte(tailFuzzStart))
	}
}

// tailFuzzStart is the tail each fuzz input also decodes into: its
// second log, batch, names and requested keys shrink the slices the
// first ones decoded, leaving stale elements past their length.
const tailFuzzStart = `{"version":4,"shard":1,"config":{"m":2,"policy":"hybrid","oi_threshold":"1/8","drift_bound":"0"},` +
	`"seed":{"M":2,"Tasks":[{"Name":"s","Weight":"1/3","Join":0,"Group":"g"}]},"from":0,"total":3,"now":9,"digest":7,` +
	`"batch":[{"at":9,"op":"join","task":"b","weight":"1/4","group":"g"},{"at":9,"op":"leave","task":"c","weight":"0"}],"batch":[null],` +
	`"admission":{"names":["a","b","c"],"requested":[{"task":"a","weight":"1/2"},{"task":"b","weight":"1/4"}]},` +
	`"admission":{"names":[null],"requested":[null]},"books_digest":5,` +
	`"log":[{"at":1,"op":"join","task":"a","weight":"1/2","arg":4},{"at":2,"op":"reweight","task":"a","weight":"1/3","group":"h"},{"at":3,"op":"leave","task":"a","weight":"0"}],` +
	`"log":[null]}`

// FuzzTailCodec fuzzes the codec's agreement with encoding/json in both
// directions: every input decodes alike, fresh and into a tail that
// holds values, and every tail encoding/json decodes encodes alike.
func FuzzTailCodec(f *testing.F) {
	for _, in := range tailCodecCorpus {
		f.Add([]byte(in))
	}
	f.Add([]byte(tailFuzzStart))
	// Churn tails under 2 KB only: the fuzzer minimizes each input it
	// finds interesting, and a mutant of a long tail takes it most of a
	// short run to minimize.
	tails, _, _ := churnTails(f, 5)
	for _, tl := range tails {
		data, err := json.Marshal((*tailRef)(withSeedAndArgs(tl)))
		if err != nil {
			f.Fatal(err)
		}
		if len(data) < 2048 {
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkTailDecoding(t, data, nil)
		checkTailDecoding(t, data, []byte(tailFuzzStart))
		var tl tailRef
		if json.Unmarshal(data, &tl) == nil {
			checkTailEncoding(t, (*Tail)(&tl))
		}
	})
}

// pushTail cuts a tail of the size a cluster-write push carries late
// in a slot: a shard at that workload's shape (M=16, 256 tasks) with
// 12 reweights staged, cut at the log end, so it carries the batch but
// no log (about 1 KB).
func pushTail(tb testing.TB) *Tail {
	tb.Helper()
	sh, err := newShard(0, ShardConfig{M: 16}, 64)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		admitOne(sh, core.OpJoin, fmt.Sprintf("w%d-task%d", i%2, i), frac.New(1, 32))
	}
	sh.advance(1)
	for i := 0; i < 12; i++ {
		admitOne(sh, core.OpReweight, fmt.Sprintf("w%d-task%d", i%2, 7*i), frac.New(int64(1+i%4), 64))
	}
	tl, err := sh.tail(sh.log.len(), 0)
	if err != nil {
		tb.Fatal(err)
	}
	return tl
}

// TestTailEncodeZeroAlloc: encoding a push-sized tail into a reused
// buffer allocates nothing.
func TestTailEncodeZeroAlloc(t *testing.T) {
	tl := pushTail(t)
	buf, err := encodeTail(nil, nil, tl)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		buf, _ = encodeTail(buf[:0], nil, tl)
	}); allocs != 0 {
		t.Fatalf("encoding a %d-byte tail into a reused buffer allocates %.1f times, want 0", len(buf), allocs)
	}
}

// fullLogTail cuts the complete tail of a shard at node-batch32's shape
// (M=4, 64 tasks, 256 reweights a slot) after 400 slots: 102,464
// commands.
func fullLogTail(tb testing.TB) *Tail {
	tb.Helper()
	sh, err := newShard(0, ShardConfig{M: 4}, 64)
	if err != nil {
		tb.Fatal(err)
	}
	names := make([]string, 64)
	for i := range names {
		names[i] = fmt.Sprintf("c%d-t%d", i%32, i)
		admitOne(sh, core.OpJoin, names[i], frac.New(1, 64))
	}
	sh.advance(1)
	for slot := 0; slot < 400; slot++ {
		for k := 0; k < 256; k++ {
			admitOne(sh, core.OpReweight, names[(slot+k)%64], frac.New(int64(1+k%3), 64))
		}
		sh.advance(1)
	}
	tl, err := sh.tail(0, 0)
	if err != nil {
		tb.Fatal(err)
	}
	return tl
}

// BenchmarkTailCodec times the tail codec against encoding/json on a
// push-sized tail and a full-log one, each way. The gap is the codec's
// justification, recorded in docs/SERVE.md; like BenchmarkWirePathJSON
// it is deliberately not in BENCH_core.json.
func BenchmarkTailCodec(b *testing.B) {
	for _, tc := range []struct {
		name string
		tail func(testing.TB) *Tail
	}{{"push", pushTail}, {"full", fullLogTail}} {
		tl := tc.tail(b)
		data, err := tl.MarshalJSON()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name+"/encode/codec", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			buf := make([]byte, 0, len(data))
			for i := 0; i < b.N; i++ {
				buf, _ = encodeTail(buf[:0], nil, tl)
			}
		})
		b.Run(tc.name+"/encode/json", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := json.Marshal((*tailRef)(tl)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(tc.name+"/decode/codec", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				var t Tail
				if err := t.UnmarshalJSON(data); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(tc.name+"/decode/json", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				var t tailRef
				if err := json.Unmarshal(data, &t); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
