// Package keyboard models physical keyboard layouts. The spelling-mistakes
// plugin uses it to produce realistic substitution and insertion typos: it
// locates the key (and modifier) that produces a character, then finds all
// characters a human could produce by mistakenly pressing a nearby key with
// the same modifier combination (paper §4.1).
package keyboard

import (
	"math"
	"sort"
	"sync"
)

// Modifier is a set of modifier keys held while pressing a key.
type Modifier uint8

// Modifier values. The model currently distinguishes only Shift, which is
// what the paper's substitution and case-alteration submodels require.
const (
	// ModNone means the key is pressed bare.
	ModNone Modifier = 0
	// ModShift means the key is pressed with Shift held.
	ModShift Modifier = 1 << iota
)

// Key is a physical key: a position on the board plus the characters it
// produces bare and shifted. A zero rune means the key produces nothing at
// that modifier level.
type Key struct {
	// X is the horizontal position in key units, including row stagger.
	X float64
	// Y is the row number (0 = digit row).
	Y float64
	// Base is the character produced with no modifiers.
	Base rune
	// Shift is the character produced with Shift held.
	Shift rune
}

// Rune returns the character the key produces under the given modifier,
// with ok reporting whether it produces one.
func (k Key) Rune(mod Modifier) (rune, bool) {
	var r rune
	if mod&ModShift != 0 {
		r = k.Shift
	} else {
		r = k.Base
	}
	return r, r != 0
}

// Layout is a keyboard layout: a set of keys with geometry. It is
// immutable once built, so one layout may serve any number of goroutines.
type Layout struct {
	name string
	keys []Key
	// index maps each producible rune to its key index, its modifier and
	// its neighbours, computed when the layout is built.
	index map[rune]keyRef
}

type keyRef struct {
	key       int
	mod       Modifier
	neighbors []rune
}

// neighborThreshold is the maximum center distance, in key units, for two
// keys to count as neighbors. 1.3 covers the horizontally adjacent keys and
// the two or three diagonally adjacent keys of the staggered rows — the
// keys a finger plausibly slips to.
const neighborThreshold = 1.3

// NewLayout builds a layout from a key list and computes every producible
// rune's neighbours. Later keys win when two keys claim the same rune
// (which does not occur in the built-in layouts).
func NewLayout(name string, keys []Key) *Layout {
	l := &Layout{name: name, keys: keys, index: make(map[rune]keyRef)}
	for i, k := range keys {
		if k.Base != 0 {
			l.index[k.Base] = keyRef{key: i, mod: ModNone}
		}
		if k.Shift != 0 {
			l.index[k.Shift] = keyRef{key: i, mod: ModShift}
		}
	}
	for r, ref := range l.index {
		ref.neighbors = l.neighbors(ref)
		l.index[r] = ref
	}
	return l
}

// Neighbors returns the characters produced by pressing the keys adjacent
// to the one producing r, holding the same modifiers — the realistic
// outcomes of a finger slip. Results are sorted by distance, nearest
// first; ties are broken by rune value for determinism. The rune itself is
// never included. The result is nil when the layout cannot produce r.
//
// The slice is the layout's own table, shared by every caller: callers
// must not modify it.
func (l *Layout) Neighbors(r rune) []rune {
	return l.index[r].neighbors
}

// neighbors computes the neighbours of the rune ref produces.
func (l *Layout) neighbors(ref keyRef) []rune {
	origin := l.keys[ref.key]
	type cand struct {
		r    rune
		dist float64
	}
	var cands []cand
	for i, k := range l.keys {
		if i == ref.key {
			continue
		}
		d := dist(origin, k)
		if d > neighborThreshold {
			continue
		}
		nr, ok := k.Rune(ref.mod)
		if !ok {
			continue
		}
		cands = append(cands, cand{r: nr, dist: d})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].dist != cands[j].dist {
			return cands[i].dist < cands[j].dist
		}
		return cands[i].r < cands[j].r
	})
	out := make([]rune, len(cands))
	for i, c := range cands {
		out[i] = c.r
	}
	return out
}

func dist(a, b Key) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// row builds a row of keys starting at the given x offset. base and shift
// are parallel strings of the characters produced at each position; a
// space in shift means the key has no shifted character (space itself is
// modeled as a dedicated key).
func row(y, startX float64, base, shift string) []Key {
	bs, ss := []rune(base), []rune(shift)
	keys := make([]Key, 0, len(bs))
	for i, b := range bs {
		var s rune
		if i < len(ss) {
			s = ss[i]
		}
		keys = append(keys, Key{X: startX + float64(i), Y: y, Base: b, Shift: s})
	}
	return keys
}

// USQwerty returns the standard ANSI US-QWERTY layout.
func USQwerty() *Layout {
	var keys []Key
	keys = append(keys, row(0, 0, "`1234567890-=", "~!@#$%^&*()_+")...)
	keys = append(keys, row(1, 1.5, "qwertyuiop[]\\", "QWERTYUIOP{}|")...)
	keys = append(keys, row(2, 1.75, "asdfghjkl;'", "ASDFGHJKL:\"")...)
	keys = append(keys, row(3, 2.25, "zxcvbnm,./", "ZXCVBNM<>?")...)
	// Space bar: wide key centered under the letter block. Modeled as a
	// single key; it neighbors nothing at threshold 1.3 because y distance
	// to row 3 is 1 and the bar center is far from most keys — but we place
	// it below v/b so insertions of stray spaces remain possible.
	keys = append(keys, Key{X: 6.5, Y: 4, Base: ' ', Shift: 0})
	return NewLayout("us-qwerty", keys)
}

// SwissGerman returns the Swiss-German QWERTZ layout (the authors' locale:
// EPFL, Switzerland), covering its ASCII-producible characters plus the
// common accented letters.
func SwissGerman() *Layout {
	var keys []Key
	keys = append(keys, row(0, 0, "§1234567890'^", "°+\"*ç%&/()=?`")...)
	keys = append(keys, row(1, 1.5, "qwertzuiopü¨", "QWERTZUIOPè!")...)
	keys = append(keys, row(2, 1.75, "asdfghjklöä$", "ASDFGHJKLéà£")...)
	keys = append(keys, row(3, 2.25, "yxcvbnm,.-", "YXCVBNM;:_")...)
	keys = append(keys, Key{X: 6.5, Y: 4, Base: ' ', Shift: 0})
	return NewLayout("swiss-german", keys)
}

// Default returns the layout used when none is specified: US-QWERTY,
// built once and shared.
func Default() *Layout { return defaultLayout() }

var defaultLayout = sync.OnceValue(USQwerty)
