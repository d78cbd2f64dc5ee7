package workgen

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/frac"
	"repro/internal/model"
)

// goldenTrace is the fixture trace: two shards, every wire op, names
// that stress the quoting (spaces, quotes, backslashes, HTML
// characters, unicode, empty group), and a digest with leading zeros.
// A leave carries weight frac.New(0, 1), as Record returns one: the
// snapshot writes a leave's weight as "0", which decodes to 0/1 rather
// than to the zero frac.Rat.
func goldenTrace() *Trace {
	return &Trace{Shards: []ShardTrace{
		{
			Version: 2, Shard: 0,
			Config: ShardConfig{M: 2, Policy: "oi", OIThreshold: frac.New(1, 8)},
			Seed:   model.System{M: 2},
			Now:    3, Digest: 0x00000000deadbeef,
			Log: []core.Command{
				{At: 0, Op: core.OpJoin, Task: "plain", Weight: frac.New(1, 64)},
				{At: 0, Op: core.OpJoin, Task: "with space", Weight: frac.New(1, 4), Group: "grp A"},
				{At: 1, Op: core.OpReweight, Task: "plain", Weight: frac.New(3, 64)},
				{At: 2, Op: core.OpLeave, Task: "with space", Weight: frac.New(0, 1)},
			},
		},
		{
			Version: 2, Shard: 1,
			Config: ShardConfig{M: 4, Policy: "hybrid", OIThreshold: frac.New(1, 16),
				EarlyRelease: true, RecordSchedule: true},
			Seed: model.System{M: 4},
			Now:  5, Digest: 0xfedcba9876543210,
			Log: []core.Command{
				{At: 0, Op: core.OpJoin, Task: `quo"te\slash<&>`, Weight: frac.New(1, 2)},
				{At: 1, Op: core.OpJoin, Task: "uniçode", Weight: frac.New(1, 3), Group: "g"},
				{At: 4, Op: core.OpReweight, Task: "uniçode", Weight: frac.New(2, 5)},
			},
		},
	}}
}

// TestTraceGolden pins the canonical encoding byte-for-byte against the
// committed fixture. Regenerate with UPDATE_GOLDEN=1 go test -run
// TestTraceGolden.
func TestTraceGolden(t *testing.T) {
	path := filepath.Join("testdata", "golden.json")
	got, err := goldenTrace().EncodeToBytes()
	if err != nil {
		t.Fatal(err)
	}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("encoding drifted from golden fixture:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestTraceRoundTrip checks decode(encode(tr)) reproduces the trace and
// that re-encoding is a byte-stable fixed point.
func TestTraceRoundTrip(t *testing.T) {
	tr := goldenTrace()
	enc, err := tr.EncodeToBytes()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeTrace(bytes.NewReader(enc))
	if err != nil {
		t.Fatalf("decoding own encoding: %v", err)
	}
	if !reflect.DeepEqual(tr, dec) {
		t.Errorf("round trip changed the trace:\n got %+v\nwant %+v", dec, tr)
	}
	enc2, err := dec.EncodeToBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Errorf("re-encoding is not byte-stable:\n first %q\n second %q", enc, enc2)
	}
}

// TestTraceShardsUnsortedEncodeSorted checks EncodeToBytes emits shards
// in ascending id order regardless of input order.
func TestTraceShardsUnsortedEncodeSorted(t *testing.T) {
	tr := goldenTrace()
	tr.Shards[0], tr.Shards[1] = tr.Shards[1], tr.Shards[0]
	enc, err := tr.EncodeToBytes()
	if err != nil {
		t.Fatal(err)
	}
	want, err := goldenTrace().EncodeToBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, want) {
		t.Error("shard order in the input leaked into the encoding")
	}
}

// okShard is one valid shard object; the malformed cases of
// TestDecodeTraceErrors each change one thing in it.
const okShard = `{"version":2,"shard":0,"config":{"m":1,"policy":"oi","oi_threshold":"1/8","early_release":false,"record_schedule":false},` +
	`"seed":{"M":1,"Tasks":null},"now":1,"digest":0,"log":[{"at":0,"op":"join","task":"a","weight":"1/4"}]}`

// TestDecodeTraceErrors feeds malformed traces and requires an error —
// never a panic — for each.
func TestDecodeTraceErrors(t *testing.T) {
	valid, err := goldenTrace().EncodeToBytes()
	if err != nil {
		t.Fatal(err)
	}
	vs := string(valid)
	if _, err := DecodeTrace(strings.NewReader("[" + okShard + "]")); err != nil {
		t.Fatalf("the unchanged base shard must decode: %v", err)
	}
	for _, v := range []string{"3", "4", "5"} {
		shard := strings.Replace(okShard, `"version":2`, `"version":`+v, 1)
		if _, err := DecodeTrace(strings.NewReader("[" + shard + "]")); err != nil {
			t.Fatalf("a version-%s shard must decode: %v", v, err)
		}
	}
	// mut is a one-shard trace with one substring of okShard replaced.
	mut := func(old, new string) string {
		if !strings.Contains(okShard, old) {
			t.Fatalf("okShard has no %q", old)
		}
		return "[" + strings.Replace(okShard, old, new, 1) + "]"
	}
	const join = `{"at":0,"op":"join","task":"a","weight":"1/4"}`
	cases := map[string]string{
		"empty":                "",
		"null":                 "null\n",
		"garbage":              "hello world\n",
		"wrong version":        mut(`"version":2`, `"version":1`),
		"future version":       mut(`"version":2`, `"version":6`),
		"missing version":      mut(`"version":2,`, ``),
		"missing end":          strings.TrimSuffix(vs, "]\n"),
		"truncated mid-shard":  vs[:len(vs)/2],
		"trailing data":        vs + "extra\n",
		"short shard":          `[{"version":2,"shard":0,"config":{"m":1}}]`,
		"missing now":          mut(`"now":1,`, ``),
		"missing digest":       mut(`"digest":0,`, ``),
		"null digest":          mut(`"digest":0`, `"digest":null`),
		"missing seed":         mut(`"seed":{"M":1,"Tasks":null},`, ``),
		"missing policy":       mut(`"policy":"oi",`, ``),
		"missing flag":         mut(`,"record_schedule":false`, ``),
		"command without op":   mut(`"op":"join",`, ``),
		"command without at":   mut(`"at":0,`, ``),
		"command without task": mut(`"task":"a",`, ``),
		"second array":         vs + "[]\n",
		"bad digest":           mut(`"digest":0`, `"digest":"xyz"`),
		"bad bit":              mut(`"early_release":false`, `"early_release":2`),
		"m < 1":                mut(`"m":1`, `"m":0`),
		"negative now":         mut(`"now":1`, `"now":-1`),
		"unknown op":           mut(`"op":"join"`, `"op":"explode"`),
		"non-wire op":          mut(join, `{"at":0,"op":"delay","task":"a","arg":2}`),
		"join without weight":  mut(`,"weight":"1/4"`, ``),
		"join with arg":        mut(`"weight":"1/4"`, `"weight":"1/4","arg":2`),
		"leave with weight":    mut(`"op":"join"`, `"op":"leave"`),
		"unquoted task":        mut(`"task":"a"`, `"task":a`),
		"at >= now":            mut(`"at":0`, `"at":1`),
		"unsorted log": strings.Replace(mut(join, `{"at":2,"op":"join","task":"a","weight":"1/4"},{"at":1,"op":"join","task":"b","weight":"1/4"}`),
			`"now":1`, `"now":3`, 1),
		"duplicate shard id": "[" + okShard + "," + okShard + "]",
		"unknown field":      mut(`"digest":0`, `"digest":0,"books_digest":0`),
		"seeded tasks":       mut(`"Tasks":null`, `"Tasks":[{"Name":"s","Weight":"1/4"}]`),
	}
	for name, in := range cases {
		if _, err := DecodeTrace(strings.NewReader(in)); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// FuzzTraceDecode requires DecodeTrace never panics, and that any trace
// it accepts is already in canonical form up to a re-encode fixed
// point: encode(decode(in)) must itself decode to the same trace.
func FuzzTraceDecode(f *testing.F) {
	valid, err := goldenTrace().EncodeToBytes()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(valid))
	f.Add("")
	f.Add("[]\n")
	f.Add("[" + okShard + "]")
	f.Add(strings.Replace("["+okShard+"]", `"version":2`, `"version":1`, 1))
	f.Add(string(valid[:len(valid)/3]))
	f.Fuzz(func(t *testing.T, in string) {
		tr, err := DecodeTrace(strings.NewReader(in))
		if err != nil {
			return
		}
		enc, err := tr.EncodeToBytes()
		if err != nil {
			t.Fatalf("decoded trace fails to encode: %v", err)
		}
		tr2, err := DecodeTrace(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("canonical re-encoding fails to decode: %v\n%s", err, enc)
		}
		enc2, err := tr2.EncodeToBytes()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding is not a fixed point:\n first %q\n second %q", enc, enc2)
		}
	})
}
