package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/frac"
)

// The codec's contract is byte-for-byte agreement with encoding/json in
// both directions (see codec.go). These tests pin it: golden encoder
// comparisons over adversarial strings, a differential decoder harness
// against the legacy json.Unmarshal+parseCommand pipeline, fuzz entry
// points for both, and the zero-allocation proof the tentpole claims.

// nastyStrings exercises every escaping branch: HTML characters,
// control bytes (short and \u00xx forms), DEL (not escaped), invalid
// UTF-8, U+2028/U+2029, multibyte runes, quotes and backslashes.
var nastyStrings = []string{
	"",
	"plain",
	"a<b>&c",
	"quote\"back\\slash",
	"tab\tnl\ncr\r",
	"bs\bff\f",
	"ctrl\x00\x01\x1fdel\x7f",
	"bad\xff\xfeutf8",
	"truncated\xe6\x97",
	"line\u2028sep\u2029par",
	"日本語 text",
	"emoji \U0001F600 pair",
}

func TestEncoderByteCompatible(t *testing.T) {
	results := []CommandResult{
		{Status: "queued", Slot: 42},
		{Status: "queued"},
		{Status: "rejected", Code: 409, Error: errWeight, Reason: "join x exceeds property (W)", Headroom: "1/4"},
		{Status: "rejected", Code: 404, Error: errUnknown, Reason: "task \"nope\" never joined"},
		{Status: "rejected", Slot: -7, Code: 409, Error: errConflict, Reason: "already leaving"},
	}
	for _, s := range nastyStrings {
		results = append(results, CommandResult{Status: s, Reason: s, Headroom: s})
	}

	for i := range results {
		want, err := json.Marshal(results[i])
		if err != nil {
			t.Fatal(err)
		}
		if got := appendCommandResult(nil, &results[i]); !bytes.Equal(got, want) {
			t.Errorf("result %d: codec %q, encoding/json %q", i, got, want)
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(results[i]); err != nil {
			t.Fatal(err)
		}
		if got := appendCommandResultLine(nil, &results[i]); !bytes.Equal(got, buf.Bytes()) {
			t.Errorf("result line %d: codec %q, encoding/json %q", i, got, buf.Bytes())
		}
	}

	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(results); err != nil {
		t.Fatal(err)
	}
	if got := appendCommandResults(nil, results); !bytes.Equal(got, buf.Bytes()) {
		t.Errorf("results array:\ncodec         %q\nencoding/json %q", got, buf.Bytes())
	}

	for _, now := range []int64{0, 1, -3, 1 << 40, -(1 << 62)} {
		buf.Reset()
		if err := json.NewEncoder(&buf).Encode(AdvanceResponse{Now: now}); err != nil {
			t.Fatal(err)
		}
		if got := appendAdvanceResponse(nil, now); !bytes.Equal(got, buf.Bytes()) {
			t.Errorf("advance %d: codec %q, encoding/json %q", now, got, buf.Bytes())
		}
	}
}

// legacyDecodeCommands is the pre-codec pipeline — encoding/json
// decoding plus parseCommand validation, exactly as handleCommands ran
// it — kept as the reference implementation the codec must agree with.
func legacyDecodeCommands(body []byte) ([]wireCmd, bool, error) {
	isArray := false
	for _, c := range body {
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			continue
		}
		isArray = c == '['
		break
	}
	var reqs []CommandRequest
	if isArray {
		if err := json.Unmarshal(body, &reqs); err != nil {
			return nil, true, err
		}
	} else {
		var one CommandRequest
		if err := json.Unmarshal(body, &one); err != nil {
			return nil, false, err
		}
		reqs = []CommandRequest{one}
	}
	out := make([]wireCmd, 0, len(reqs))
	for i := range reqs {
		op, w, err := parseCommand(reqs[i])
		if err != nil {
			return nil, isArray, fmt.Errorf("command %d: %v", i, err)
		}
		c := wireCmd{Command: core.Command{Op: op, Weight: w}, raw: []byte(reqs[i].Task)}
		if op == core.OpJoin {
			c.Group = reqs[i].Group // only a join applies its group
		}
		out = append(out, c)
	}
	return out, isArray, nil
}

func checkCommandsAgreement(t testing.TB, body []byte) {
	t.Helper()
	gotCmds, _, gotBatch, gotErr := decodeCommands(body, nil, nil)
	wantCmds, wantBatch, wantErr := legacyDecodeCommands(body)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("body %q:\ncodec err:  %v\nlegacy err: %v", body, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if gotBatch != wantBatch {
		t.Fatalf("body %q: codec batch=%v, legacy batch=%v", body, gotBatch, wantBatch)
	}
	if len(gotCmds) != len(wantCmds) {
		t.Fatalf("body %q: codec %d commands, legacy %d", body, len(gotCmds), len(wantCmds))
	}
	for i := range gotCmds {
		g, w := gotCmds[i], wantCmds[i]
		if g.Command != w.Command || !bytes.Equal(g.raw, w.raw) {
			t.Fatalf("body %q command %d: codec {%+v raw:%q}, legacy {%+v raw:%q}",
				body, i, g.Command, g.raw, w.Command, w.raw)
		}
	}
}

func checkAdvanceAgreement(t testing.TB, body []byte) {
	t.Helper()
	gotSlots, gotErr := decodeAdvance(body)
	var req AdvanceRequest
	var wantErr error
	if len(body) > 0 {
		wantErr = json.Unmarshal(body, &req)
	}
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("body %q:\ncodec err:         %v\nencoding/json err: %v", body, gotErr, wantErr)
	}
	if gotErr == nil && gotSlots != req.Slots {
		t.Fatalf("body %q: codec slots=%d, encoding/json slots=%d", body, gotSlots, req.Slots)
	}
}

// commandCorpus seeds both the table test and the fuzzer. Each entry is
// checked for outcome agreement (and value agreement on success) with
// the legacy pipeline.
var commandCorpus = []string{
	// Valid commands, all ops.
	`{"op":"join","task":"a","weight":"1/2"}`,
	`{"op":"reweight","task":"a","weight":"3/7","group":"g1"}`,
	`{"op":"leave","task":"a"}`,
	`{"op":"leave","task":"a","weight":"ignored for leave? no: parsed"}`,
	` [ {"op":"join","task":"x","weight":"1/4"} , {"op":"leave","task":"y"} ] `,
	"\t{\"op\":\"join\",\"task\":\"ws\",\"weight\":\"1/3\"}\n",
	// Key handling: case folding, duplicates, unknown fields, null.
	`{"OP":"join","Task":"a","WeIgHt":"1/2"}`,
	`{"op":"leave","op":"join","task":"a","weight":"1/2"}`,
	`{"op":"join","task":"a","weight":"1/3","weight":"1/2"}`,
	`{"op":"leave","task":"a","extra":{"deep":[1,2,{"y":null}],"f":-1.5e-3,"t":true}}`,
	`{"op":"join","task":null,"weight":"1/2"}`,
	`{"op":null,"task":"a"}`,
	`{"op":"leave","task":"a","op":null,"task":null}`,
	"{\"op\":\"leave\",\"tas\u212a\":\"kelvin\"}",
	`{"op":"leave","ta\u017fk":"long s"}`,
	`{"op":"leave","task":"a","x":{null:1}}`,
	`{}`,
	`null`,
	`[]`,
	`[null]`,
	`[{},null]`,
	// String escapes and encodings.
	`{"op":"leave","task":"\u0041\n\t\"\\\/"}`,
	`{"op":"leave","task":"\ud83d\ude00 pair"}`,
	`{"op":"leave","task":"\ud800"}`,
	`{"op":"leave","task":"\ud800\u0041"}`,
	`{"op":"leave","task":"\ud800\ud800"}`,
	`{"op":"leave","task":"\ude00 low first"}`,
	"{\"op\":\"leave\",\"task\":\"raw\xff\xfebytes\"}",
	"{\"op\":\"leave\",\"task\":\"trunc\xe6\x97\"}",
	"{\"op\":\"leave\",\"task\":\"multi日本\"}",
	`{"\u006fp":"leave","task":"escaped key"}`,
	"{\"op\":\"leave\",\"task\":\"ctrl\x01char\"}",
	`{"op":"leave","task":"bad\x41escape"}`,
	`{"op":"leave","task":"unterminated`,
	// Weight grammar (frac.Parse parity).
	`{"op":"join","task":"a","weight":" 1/2"}`,
	`{"op":"join","task":"a","weight":"+1/4"}`,
	`{"op":"join","task":"a","weight":"01/016"}`,
	`{"op":"join","task":"a","weight":"1 / 2"}`,
	`{"op":"join","task":"a","weight":"1/0"}`,
	`{"op":"join","task":"a","weight":"1/2/3"}`,
	`{"op":"join","task":"a","weight":"abc"}`,
	`{"op":"join","task":"a","weight":"-1/-2"}`,
	`{"op":"join","task":"a","weight":"9223372036854775808/2"}`,
	`{"op":"join","task":"a","weight":"3/9223372036854775807"}`,
	`{"op":"join","task":"a","weight":"-4611686018427387904/-9223372036854775808"}`,
	`{"op":"join","task":"a","weight":"-9223372036854775808/3"}`,
	"{\"op\":\"join\",\"task\":\"a\",\"weight\":\"\u00a01/2\u00a0\"}",
	`{"op":"join","task":"a","weight":"1_0/20"}`,
	`{"op":"join","task":"a","weight":1}`,
	`{"op":"join","task":"a"}`,
	`{"op":"join","task":"","weight":"1/2"}`,
	`{"op":"sideways","task":"a"}`,
	// Malformed JSON.
	``,
	`   `,
	`true`,
	`"string"`,
	`123`,
	`{"op":"leave","task":"a"} trailing`,
	`{"op":"leave","task":"a",}`,
	`[{"op":"leave","task":"a"},]`,
	`[{"op":"leave","task":"a"}`,
	`{"op" "leave"}`,
	`{op:"leave"}`,
	`[{"op":"bad","task":"a"},{"op":"leave" "task":"b"}]`,
	`[{"op":"leave","task":"a"},{"op":"bad","task":"b"}]`,
	`[[{"op":"leave","task":"a"}]]`,
	`[{"op":"leave","task":"a"},42]`,
	`{"op":"leave","task":"a","x":01}`,
	`{"op":"leave","task":"a","x":1.}`,
	`{"op":"leave","task":"a","x":1e}`,
	`{"op":"leave","task":"a","x":-}`,
}

var advanceCorpus = []string{
	``,
	`{}`,
	`null`,
	` { "slots" : 5 } `,
	`{"slots":0}`,
	`{"slots":-2}`,
	`{"SLOTS":3}`,
	`{"slots":5,"slots":7}`,
	`{"slots":null}`,
	`{"slots":5,"slots":null}`,
	"{\"\u017flots\":6}",
	`{"slots":1.5}`,
	`{"slots":"5"}`,
	`{"slots":1e3}`,
	`{"slots":-0}`,
	`{"slots":00}`,
	`{"slots":9223372036854775807}`,
	`{"slots":9223372036854775808}`,
	`{"slots":-9223372036854775808}`,
	`{"x":[1,2],"slots":4}`,
	`{"slots":true}`,
	`{"slots":4`,
	`{"slots":4} x`,
	`[]`,
	`5`,
}

func TestDecodeCommandsAgreesWithLegacy(t *testing.T) {
	for _, body := range commandCorpus {
		checkCommandsAgreement(t, []byte(body))
	}
}

func TestDecodeAdvanceAgreesWithJSON(t *testing.T) {
	for _, body := range advanceCorpus {
		checkAdvanceAgreement(t, []byte(body))
	}
}

func FuzzDecodeCommands(f *testing.F) {
	for _, body := range commandCorpus {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkCommandsAgreement(t, body)
	})
}

func FuzzDecodeAdvance(f *testing.F) {
	for _, body := range advanceCorpus {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkAdvanceAgreement(t, body)
	})
}

// wirePathShard builds a shard with joined, applied tasks t0..t{n-1} at
// weight 1/64, ready to absorb reweights.
func wirePathShard(t testing.TB, n int) *Shard {
	sh, err := newShard(0, ShardConfig{M: 8}, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("t%d", i)
		c := wireCmd{Command: core.Command{Op: core.OpJoin, Weight: frac.New(1, 64)}, raw: []byte(name)}
		if res := sh.admit(&c); res.Status != "queued" {
			t.Fatalf("join %s: %+v", name, res)
		}
	}
	sh.advance(1)
	return sh
}

// reweightBatchBody builds a batch body of n reweight commands cycling
// over the shard's tasks.
func reweightBatchBody(n int) []byte {
	var buf bytes.Buffer
	buf.WriteByte('[')
	for i := 0; i < n; i++ {
		if i > 0 {
			buf.WriteByte(',')
		}
		fmt.Fprintf(&buf, `{"op":"reweight","task":"t%d","weight":"%d/64"}`, i, 1+i%8)
	}
	buf.WriteByte(']')
	return buf.Bytes()
}

// TestWirePathZeroAlloc is the tentpole's acceptance criterion: one
// full decode → admit → publish → encode round trip, running in pooled buffers,
// performs zero steady-state allocations.
func TestWirePathZeroAlloc(t *testing.T) {
	const n = 32
	sh := wirePathShard(t, n)
	body := reweightBatchBody(n)
	var (
		esc     []byte
		cmds    []wireCmd
		results []CommandResult
		out     []byte
	)
	round := func() {
		var err error
		cmds, esc, _, err = decodeCommands(body, esc, cmds[:0])
		if err != nil {
			t.Fatal(err)
		}
		results = results[:0]
		for i := range cmds {
			results = append(results, sh.admit(&cmds[i]))
		}
		sh.batch = sh.batch[:0] // keep the staged batch from growing across rounds
		sh.publish(nil)
		out = appendCommandResults(out[:0], results)
	}
	round() // warm the buffers
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Fatalf("wire round trip allocates %.1f times per run, want 0", allocs)
	}

	advBody := []byte(`{"slots":3}`)
	advRound := func() {
		slots, err := decodeAdvance(advBody)
		if err != nil || slots != 3 {
			t.Fatalf("decodeAdvance: %d, %v", slots, err)
		}
		out = appendAdvanceResponse(out[:0], slots)
	}
	advRound()
	if allocs := testing.AllocsPerRun(200, advRound); allocs != 0 {
		t.Fatalf("advance round trip allocates %.1f times per run, want 0", allocs)
	}
}

// BenchmarkWirePath measures the full hot-path round trip — decode a
// 32-command reweight batch, admit each command, encode the response —
// the serving cost pd2load pays per batch minus HTTP itself. Tracked in
// BENCH_core.json via make bench-check.
func BenchmarkWirePath(b *testing.B) {
	const n = 32
	sh := wirePathShard(b, n)
	body := reweightBatchBody(n)
	var (
		esc     []byte
		cmds    []wireCmd
		results []CommandResult
		out     []byte
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		cmds, esc, _, err = decodeCommands(body, esc, cmds[:0])
		if err != nil {
			b.Fatal(err)
		}
		results = results[:0]
		for j := range cmds {
			results = append(results, sh.admit(&cmds[j]))
		}
		sh.batch = sh.batch[:0]
		out = appendCommandResults(out[:0], results)
	}
	_ = out
}

// BenchmarkWirePathJSON runs BenchmarkWirePath's round trip through the
// pre-codec encoding/json path (legacyDecodeCommands, then a
// json.Encoder). The gap between the two is the codec's justification,
// recorded in docs/SERVE.md; it is deliberately not in BENCH_core.json.
func BenchmarkWirePathJSON(b *testing.B) {
	const n = 32
	sh := wirePathShard(b, n)
	body := reweightBatchBody(n)
	var (
		results []CommandResult
		out     bytes.Buffer
	)
	enc := json.NewEncoder(&out)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cmds, _, err := legacyDecodeCommands(body)
		if err != nil {
			b.Fatal(err)
		}
		results = results[:0]
		for j := range cmds {
			results = append(results, sh.admit(&cmds[j]))
		}
		sh.batch = sh.batch[:0]
		out.Reset()
		if err := enc.Encode(results); err != nil {
			b.Fatal(err)
		}
	}
}
