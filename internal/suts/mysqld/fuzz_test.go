package mysqld

import (
	"fmt"
	"testing"
)

// FuzzParseConfig feeds arbitrary configuration text to the parser,
// seeded from the simulator's baseline configuration: it must not panic,
// and an accepted input must parse the same way twice.
func FuzzParseConfig(f *testing.F) {
	s, err := New(3306)
	if err != nil {
		f.Fatal(err)
	}
	for _, files := range []map[string][]byte{s.DefaultConfig(), s.FullConfig(), s.SharedConfig()} {
		f.Add(string(files[ConfigFile]))
	}
	f.Fuzz(func(t *testing.T, conf string) {
		st, latent, err := s.parseConfig(conf)
		if err != nil {
			return
		}
		first := fmt.Sprintf("%#v %#v", st, latent)
		st, latent, err = s.parseConfig(conf)
		if second := fmt.Sprintf("%#v %#v", st, latent); err != nil || first != second {
			t.Fatalf("accepted input parsed differently the second time (err %v):\n%s\n%s", err, first, second)
		}
	})
}
