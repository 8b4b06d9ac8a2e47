package httpd

import (
	"fmt"
	"testing"
)

// FuzzParseConfig feeds arbitrary configuration text to the parser,
// seeded from the simulator's baseline configuration: it must not panic,
// and an accepted input must parse the same way twice.
func FuzzParseConfig(f *testing.F) {
	s, err := New(8080)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(s.DefaultConfig()[ConfigFile]))
	f.Fuzz(func(t *testing.T, conf string) {
		first, err := parseConfig(conf)
		if err != nil {
			return
		}
		second, err := parseConfig(conf)
		if err != nil || fmt.Sprintf("%#v", first) != fmt.Sprintf("%#v", second) {
			t.Fatalf("accepted input parsed differently the second time (err %v):\n%#v\n%#v", err, first, second)
		}
	})
}
