package dist

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"conferr/internal/profile"
)

// TestRecordLineAllocs: one record line costs no allocation, written by
// the worker into a warm buffer and classified by the coordinator.
func TestRecordLineAllocs(t *testing.T) {
	line := profile.AppendJSONLRecord(nil, "nginx", "typo", 4242, profile.Record{
		ScenarioID: "typo/nginx/listen#3", Class: "typo", Outcome: profile.DetectedAtStartup, Detail: "bad port <80>",
	})
	line = line[:len(line)-1]
	o := newRecordOpening(CampaignSpec{System: "nginx", Plugin: "typo"})
	bw := bufio.NewWriterSize(io.Discard, frameBufSize)
	var f Frame
	round := func() {
		if err := writeRecord(bw, line); err != nil {
			t.Fatal(err)
		}
		if seq, rec, err := o.decodeFrame(line, &f); err != nil || !rec || seq != 4242 {
			t.Fatalf("decodeFrame = %d, %v, %v; want 4242, true, nil", seq, rec, err)
		}
	}
	round()
	if allocs := testing.AllocsPerRun(2000, round); allocs != 0 {
		t.Fatalf("one record line costs %.2f allocs, want 0", allocs)
	}
}

// repeatsIdentityKey reports whether a JSON object names system,
// generator or seq twice, as encoding/json matches keys (case-folded):
// json.Unmarshal then keeps the last value, not the one a line opens
// with.
func repeatsIdentityKey(line []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(line))
	if _, err := dec.Token(); err != nil {
		return false
	}
	seen := make(map[string]bool)
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		key, _ := tok.(string)
		for _, name := range []string{"system", "generator", "seq"} {
			if strings.EqualFold(key, name) {
				if seen[name] {
					return true
				}
				seen[name] = true
			}
		}
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			return false
		}
	}
	return false
}

// FuzzDecodeFrame holds the coordinator's line classifier to a
// reference built on encoding/json and profile.ParseJSONLLine:
//
//   - a line opening with {"type": decodes exactly as json.Unmarshal
//     decodes it into a Frame;
//   - every other line it accepts is valid JSON whose system, generator
//     and seq json.Unmarshal reads as the campaign's and the returned
//     sequence (unless the line repeats one of those keys);
//   - it accepts every line profile.AppendJSONLRecord renders for the
//     campaign (sequences below 10^18), and refuses the rest with an
//     error naming the campaign.
func FuzzDecodeFrame(f *testing.F) {
	o := newRecordOpening(CampaignSpec{System: "nginx", Plugin: "typo"})
	record := func(system, generator string, seq int) []byte {
		line := profile.AppendJSONLRecord(nil, system, generator, seq, profile.Record{
			ScenarioID: "typo/nginx/listen#3", Class: "typo", Outcome: profile.DetectedByTest, Detail: `a <b> "q"`,
		})
		return line[:len(line)-1]
	}
	control := func(fr Frame) []byte {
		data, err := json.Marshal(fr)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	sum := profile.Summary{Injected: 4, AtStartup: 1}
	seeds := [][]byte{
		record("nginx", "typo", 7),
		record("nginx", "typo", 0),
		record("nginx", "typo", math.MaxInt32),
		record("nginx", "typo", 999999999999999999),
		record("bind", "typo", 7),
		record("nginx", "typo-x", 7),
		control(Frame{Type: TypeProgress}),
		control(Frame{Type: TypeDone, Records: 40, Summary: &sum}),
		control(Frame{Type: TypeError, Err: "dist: worker draining"}),
		[]byte(`{"type":"rec","seq":5,"rec":{}}`),
		[]byte(`{"type":"done","records":"x"}`),
		[]byte(`{"system":"nginx","generator":"typo","seq":007,"outcome":"ok"}`),
		[]byte(`{"system":"nginx","generator":"typo","seq":1234567890123456789,"outcome":"ok"}`),
		[]byte(`{"system":"nginx","generator":"typo","seq":-1,"outcome":"ok"}`),
		[]byte(`{"system":"nginx","generator":"typo","seq":1e3,"outcome":"ok"}`),
		[]byte(`{"system":"nginx","generator":"typo","seq":5}`),
		[]byte(`{"system":"nginx","generator":"typo","seq":5,"seq":6}`),
		[]byte(`{"system":"nginx","generator":"typo","seq":5,"Seq":6,"outcome":"ok"}`),
		[]byte("{\"system\":\"nginx\",\"generator\":\"typo\",\"seq\":5,\"detail\":\"\x01\"}"),
		[]byte(`{"system":"nginx","generator":"typo","seq":5,}`),
		[]byte(` {"system":"nginx","generator":"typo","seq":5,"outcome":"ok"}`),
		[]byte(`{"system": "nginx", "generator": "typo", "seq": 5, "outcome": "ok"}`),
	}
	for _, s := range seeds {
		f.Add(s)
		for _, cut := range []int{1, len(s) / 2, len(s) - 1} {
			f.Add(s[:cut]) // truncated lines
		}
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var got Frame
		seq, rec, err := o.decodeFrame(line, &got)
		if bytes.HasPrefix(line, []byte(controlPrefix)) {
			var ref Frame
			refErr := json.Unmarshal(line, &ref)
			if rec || (err == nil) != (refErr == nil) || (err == nil && !reflect.DeepEqual(got, ref)) {
				t.Fatalf("control line %q: got %+v, %v, %v; json.Unmarshal %+v, %v", line, got, rec, err, ref, refErr)
			}
			return
		}
		if err != nil {
			if rec || !strings.HasPrefix(err.Error(), "dist: worker sent a line that is no record of nginx/typo: ") {
				t.Fatalf("line %q: rec %v, error %v", line, rec, err)
			}
			e, perr := profile.ParseJSONLLine(line)
			if perr == nil && e.System == "nginx" && e.Generator == "typo" && e.Seq >= 0 && e.Seq < 1e18 &&
				bytes.Equal(line, renderLine(e)) {
				t.Fatalf("refused a record line of the campaign %q: %v", line, err)
			}
			return
		}
		if !rec || !json.Valid(line) {
			t.Fatalf("accepted %q: rec %v, valid JSON %v", line, rec, json.Valid(line))
		}
		if repeatsIdentityKey(line) {
			return
		}
		var ref struct {
			System    string `json:"system"`
			Generator string `json:"generator"`
			Seq       int    `json:"seq"`
		}
		if err := json.Unmarshal(line, &ref); err != nil {
			t.Fatalf("accepted %q, which json.Unmarshal rejects: %v", line, err)
		}
		if ref.System != "nginx" || ref.Generator != "typo" || ref.Seq != seq {
			t.Fatalf("accepted %q as seq %d of nginx/typo; json.Unmarshal reads %+v", line, seq, ref)
		}
	})
}

// renderLine renders a decoded entry back as its profile line, without the
// newline.
func renderLine(e profile.JSONLEntry) []byte {
	line := profile.AppendJSONLRecord(nil, e.System, e.Generator, e.Seq, e.Record)
	return line[:len(line)-1]
}
