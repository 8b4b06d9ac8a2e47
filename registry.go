package conferr

import (
	"cmp"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// This file implements the name-based registry that replaces the
// per-caller switch statements the CLI, the experiment harness, cmd/sutd
// and the examples used to carry. Built-in systems and plugins register
// themselves below; external code can add its own with RegisterTarget and
// RegisterGenerator (for example a ProcessSystem-backed target for a real
// server binary) and every registry-driven entry point picks them up.

// GeneratorOptions parameterizes a registered generator factory. Factories
// read the fields they understand and ignore the rest; zero values select
// each plugin's defaults.
type GeneratorOptions struct {
	// System is the registered target name the generator will run against;
	// system-specific generators (semantic) use it to pick their view.
	System string
	// Seed makes the faultload reproducible.
	Seed int64
	// PerModel bounds typo scenarios per submodel (0 = all).
	PerModel int
	// PerDirective bounds typo scenarios per directive (0 = off).
	PerDirective int
	// PerClass bounds structural/variation scenarios per class (0 = all).
	PerClass int
	// Classes restricts class-driven generators (variations, semantic) to
	// the named classes (nil = all).
	Classes []string
}

// check refuses the first negative count.
func (o GeneratorOptions) check() error {
	return cmp.Or(negative("PerModel", o.PerModel), negative("PerDirective", o.PerDirective),
		negative("PerClass", o.PerClass))
}

// negative refuses a negative count or deadline: zero means "all" or
// "off" for each of them, and so, silently, would a negative value.
func negative[T int | time.Duration](field string, v T) error {
	if v < 0 {
		return fmt.Errorf("%s is negative (%v)", field, v)
	}
	return nil
}

// GeneratorFactory constructs an error generator from options. Factories
// are the value stored in the generator registry.
type GeneratorFactory func(opts GeneratorOptions) (Generator, error)

var registry = struct {
	mu      sync.RWMutex
	targets map[string]TargetFactory
	gens    map[string]GeneratorFactory
}{
	targets: make(map[string]TargetFactory),
	gens:    make(map[string]GeneratorFactory),
}

// RegisterTarget makes a target factory available under the given name to
// every registry-driven entry point (LookupTarget, NewRunnerFor, the CLI's
// -system flag, cmd/sutd). It panics on an empty name, a nil factory, or a
// duplicate registration — all programmer errors.
func RegisterTarget(name string, f TargetFactory) {
	if name == "" || f == nil {
		panic("conferr: RegisterTarget with empty name or nil factory")
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if _, dup := registry.targets[name]; dup {
		panic(fmt.Sprintf("conferr: RegisterTarget called twice for %q", name))
	}
	registry.targets[name] = f
}

// LookupTarget returns the target factory registered under name. The error
// of an unknown name lists what is available.
func LookupTarget(name string) (TargetFactory, error) {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	if name == "" {
		return nil, fmt.Errorf("conferr: no target system given (available: %s)", joinNames(registry.targets))
	}
	f, ok := registry.targets[name]
	if !ok {
		return nil, fmt.Errorf("conferr: unknown system %q (available: %s)", name, joinNames(registry.targets))
	}
	return f, nil
}

// RegisteredTargets returns the sorted names of every registered target.
func RegisteredTargets() []string {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	return sortedKeys(registry.targets)
}

// RegisterGenerator makes a generator factory available under the given
// name. Same contract as RegisterTarget.
func RegisterGenerator(name string, f GeneratorFactory) {
	if name == "" || f == nil {
		panic("conferr: RegisterGenerator with empty name or nil factory")
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if _, dup := registry.gens[name]; dup {
		panic(fmt.Sprintf("conferr: RegisterGenerator called twice for %q", name))
	}
	registry.gens[name] = f
}

// LookupGenerator returns the generator factory registered under name.
func LookupGenerator(name string) (GeneratorFactory, error) {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	f, ok := registry.gens[name]
	if !ok {
		return nil, fmt.Errorf("conferr: unknown plugin %q (available: %s)", name, joinNames(registry.gens))
	}
	return f, nil
}

// newGenerator builds the generator registered as plugin for system;
// opts.System is overwritten with system so system-specific generators
// resolve their view against the right target. Negative counts are
// refused (GeneratorOptions.check); that error and a factory's are
// wrapped with the cell's name.
func newGenerator(system, plugin string, opts GeneratorOptions) (Generator, error) {
	gf, err := LookupGenerator(plugin)
	if err != nil {
		return nil, err
	}
	opts.System = system
	var gen Generator
	if err = opts.check(); err == nil {
		gen, err = gf(opts)
	}
	if err != nil {
		return nil, fmt.Errorf("conferr: %s/%s: %w", system, plugin, err)
	}
	return gen, nil
}

// RegisteredGenerators returns the sorted names of every registered
// generator.
func RegisteredGenerators() []string {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	return sortedKeys(registry.gens)
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func joinNames[V any](m map[string]V) string {
	return strings.Join(sortedKeys(m), ", ")
}

// Built-in registrations: the five simulated systems of the paper's
// evaluation plus their experiment variants, the two extension systems
// (nginx on the nested-block nginxconf codec, redisd reusing the kv
// codec), and the three error-generator plugins (+ the Table 2
// variations model).
func init() {
	RegisterTarget("mysql", MySQLTargetAt)
	RegisterTarget("mysql-full", MySQLFullTargetAt)
	RegisterTarget("mysql-strict", MySQLStrictTargetAt)
	RegisterTarget("mysql-shared", MySQLSharedFactory(false))
	RegisterTarget("mysql-shared-tools", MySQLSharedFactory(true))
	RegisterTarget("postgres", PostgresTargetAt)
	RegisterTarget("postgres-full", PostgresFullTargetAt)
	RegisterTarget("apache", ApacheTargetAt)
	RegisterTarget("nginx", NginxTargetAt)
	RegisterTarget("redisd", RedisdTargetAt)
	RegisterTarget("bind", BINDTargetAt)
	RegisterTarget("djbdns", DjbdnsTargetAt)

	RegisterGenerator("typo", func(o GeneratorOptions) (Generator, error) {
		return TypoGenerator(TypoOptions{
			Seed: o.Seed, PerModel: o.PerModel, PerDirective: o.PerDirective,
		}), nil
	})
	RegisterGenerator("structural", func(o GeneratorOptions) (Generator, error) {
		return StructuralGenerator(StructuralOptions{
			Seed: o.Seed, PerClass: o.PerClass, Sections: true,
		}), nil
	})
	RegisterGenerator("variations", func(o GeneratorOptions) (Generator, error) {
		perClass := o.PerClass
		if perClass == 0 {
			perClass = 10
		}
		return VariationsGenerator(o.Seed, perClass, o.Classes), nil
	})
	RegisterGenerator("semantic", func(o GeneratorOptions) (Generator, error) {
		switch o.System {
		case "bind":
			return SemanticDNSGenerator(BINDRecordView(), o.Classes), nil
		case "djbdns":
			return SemanticDNSGenerator(DjbdnsRecordView(), o.Classes), nil
		default:
			return nil, fmt.Errorf("semantic plugin applies to bind or djbdns, not %q", o.System)
		}
	})
}
