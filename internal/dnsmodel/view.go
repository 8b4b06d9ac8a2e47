package dnsmodel

import (
	"fmt"
	"strconv"
	"strings"

	"conferr/internal/confnode"
	"conferr/internal/dnswire"
	"conferr/internal/formats/zonefile"
	"conferr/internal/template"
	"conferr/internal/view"
)

// Attribute keys on record-view nodes. Record nodes use confnode
// KindRecord with Name = canonical owner, Value = canonical RDATA.
const (
	// AttrType is the RR type mnemonic.
	AttrType = "type"
	// AttrTTL is the record TTL in seconds.
	AttrTTL = "ttl"
	// AttrPart identifies which half of a combined native directive the
	// record came from ("a"/"ptr" for tinydns "=", "ns"/"soa" for ".").
	AttrPart = "part"
)

// recordNode builds a view node for a canonical record.
func recordNode(rec Record, src, part string) *confnode.Node {
	n := confnode.NewValued(confnode.KindRecord, rec.Owner, rec.Data)
	n.SetAttr(AttrType, rec.Type)
	n.SetAttr(AttrTTL, strconv.FormatUint(uint64(rec.TTL), 10))
	if src != "" {
		n.SetAttr(view.SrcAttr, src)
	}
	if part != "" {
		n.SetAttr(AttrPart, part)
	}
	return n
}

// nodeRecord reads a view node back into a canonical record.
func nodeRecord(n *confnode.Node) Record {
	ttl, _ := strconv.ParseUint(n.AttrDefault(AttrTTL, "3600"), 10, 32)
	return Record{
		Owner: Canon(n.Name),
		Type:  n.AttrDefault(AttrType, "A"),
		TTL:   uint32(ttl),
		Data:  n.Value,
	}
}

// ZoneRecordView maps BIND-style configurations (a set of zone master
// files, plus untouched non-zone files) to the record representation and
// back. Every record state is expressible in zone-file syntax, so
// Backward never fails for BIND — the asymmetry with tinydns is the point
// of the paper's §5.4 comparison.
type ZoneRecordView struct {
	// Origins maps each zone file name in the set to its zone origin.
	// Files not listed (e.g. named.conf) pass through untouched.
	Origins map[string]string
}

var _ view.IncrementalInto = ZoneRecordView{}

// Name implements view.View.
func (ZoneRecordView) Name() string { return "zone-records" }

// Forward implements view.View.
func (v ZoneRecordView) Forward(sys *confnode.Set) (*confnode.Set, error) {
	out := confnode.NewSet()
	var retErr error
	sys.Walk(func(file string, root *confnode.Node) {
		if retErr != nil {
			return
		}
		origin, ok := v.Origins[file]
		if !ok {
			return
		}
		doc := confnode.New(confnode.KindDocument, file)
		_, err := recordsFromZoneDoc(root, origin, func(rec Record, src *confnode.Node) {
			doc.Append(recordNode(rec, template.RefOf(file, src).String(), ""))
		})
		if err != nil {
			retErr = err
			return
		}
		out.Put(file, doc)
	})
	if retErr != nil {
		return nil, retErr
	}
	return out, nil
}

// Backward implements view.View: mutated records are folded back into the
// zone files (absolute, dot-terminated names, so the result is
// origin-independent); deleted records disappear, inserted records are
// appended.
func (v ZoneRecordView) Backward(mutated, sys *confnode.Set) (*confnode.Set, error) {
	out := sys.Clone()
	var retErr error
	mutated.Walk(func(file string, viewDoc *confnode.Node) {
		if retErr != nil {
			return
		}
		retErr = backwardZoneFile(out, file, viewDoc)
	})
	if retErr != nil {
		return nil, retErr
	}
	return out, nil
}

// IncrementalBackward implements view.Incremental: only dirty zone files
// are folded back; every other file — zone or pass-through — keeps
// sharing the baseline system tree.
func (v ZoneRecordView) IncrementalBackward(dirty []string, mutated, sys *confnode.Set) (*confnode.Set, error) {
	return v.IncrementalBackwardInto(nil, dirty, mutated, sys)
}

// IncrementalBackwardInto implements view.IncrementalInto.
func (ZoneRecordView) IncrementalBackwardInto(dst *confnode.Set, dirty []string, mutated, sys *confnode.Set) (*confnode.Set, error) {
	out := sys.TrackedInto(dst, mutated.Arena())
	for _, file := range dirty {
		viewDoc := mutated.Get(file)
		if viewDoc == nil {
			continue
		}
		if err := backwardZoneFile(out, file, viewDoc); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// backwardZoneFile folds one mutated record-view document back onto the
// zone file it came from inside out (fetching the system document through
// out.Get, which on a tracked set materializes a private clone).
func backwardZoneFile(out *confnode.Set, file string, viewDoc *confnode.Node) error {
	sysDoc := out.Get(file)
	if sysDoc == nil {
		return fmt.Errorf("zone view: no system file %q: %w", file, view.ErrNotExpressible)
	}
	// Capture refs before any structural change (removals shift
	// sibling indices).
	type keyed struct {
		node *confnode.Node
		key  string
	}
	var originals []keyed
	for _, n := range sysDoc.ChildrenByKind(confnode.KindRecord) {
		originals = append(originals, keyed{node: n, key: template.RefOf(file, n).String()})
	}
	bySrc := make(map[string]*confnode.Node)
	var inserts []*confnode.Node
	for _, n := range viewDoc.ChildrenByKind(confnode.KindRecord) {
		if src, ok := n.Attr(view.SrcAttr); ok {
			bySrc[src] = n
		} else {
			inserts = append(inserts, n)
		}
	}
	for _, o := range originals {
		vn, ok := bySrc[o.key]
		if !ok {
			o.node.Remove()
			continue
		}
		writeZoneRecord(o.node, nodeRecord(vn))
	}
	for _, vn := range inserts {
		rec := nodeRecord(vn)
		n := confnode.New(confnode.KindRecord, "")
		writeZoneRecord(n, rec)
		sysDoc.Append(n)
	}
	return nil
}

// writeZoneRecord rewrites a zone-file record node from a canonical record
// using absolute names.
func writeZoneRecord(n *confnode.Node, rec Record) {
	n.Kind = confnode.KindRecord
	n.Name = rec.Owner + "."
	n.SetAttr(zonefile.AttrType, rec.Type)
	n.SetAttr(zonefile.AttrTTL, strconv.FormatUint(uint64(rec.TTL), 10))
	n.Value = uncanonRData(rec.Type, rec.Data)
}

// TinyRecordView maps a tinydns-data configuration to the record
// representation and back. Combined directives put multiple records in the
// view with the same provenance and distinct parts; a mutation that leaves
// a combined directive without a consistent set of parts cannot be
// expressed — Backward returns ErrNotExpressible, which is exactly how the
// paper's missing-PTR and PTR-to-CNAME faults become N/A for djbdns
// (Table 3).
type TinyRecordView struct {
	// File is the data file name within the set.
	File string
}

var _ view.IncrementalInto = TinyRecordView{}

// Name implements view.View.
func (TinyRecordView) Name() string { return "tinydns-records" }

// Forward implements view.View.
func (v TinyRecordView) Forward(sys *confnode.Set) (*confnode.Set, error) {
	root := sys.Get(v.File)
	if root == nil {
		return nil, fmt.Errorf("tinydns view: no file %q in set", v.File)
	}
	doc := confnode.New(confnode.KindDocument, v.File)
	for _, n := range root.ChildrenByKind(confnode.KindRecord) {
		recs, err := tinyLineRecords(n)
		if err != nil {
			return nil, err
		}
		src := template.RefOf(v.File, n).String()
		for _, lr := range recs {
			doc.Append(recordNode(lr.rec, src, lr.part))
		}
	}
	out := confnode.NewSet()
	out.Put(v.File, doc)
	return out, nil
}

// Backward implements view.View.
func (v TinyRecordView) Backward(mutated, sys *confnode.Set) (*confnode.Set, error) {
	viewDoc := mutated.Get(v.File)
	if viewDoc == nil {
		return nil, fmt.Errorf("tinydns view: mutated set lost file %q: %w", v.File, view.ErrNotExpressible)
	}
	out := sys.Clone()
	if err := backwardTinyFile(out, v.File, viewDoc); err != nil {
		return nil, err
	}
	return out, nil
}

// IncrementalBackward implements view.Incremental. The view exposes a
// single data file, so either that file is dirty and gets folded onto a
// materialized clone, or nothing in the system set changed at all.
func (v TinyRecordView) IncrementalBackward(dirty []string, mutated, sys *confnode.Set) (*confnode.Set, error) {
	return v.IncrementalBackwardInto(nil, dirty, mutated, sys)
}

// IncrementalBackwardInto implements view.IncrementalInto.
func (v TinyRecordView) IncrementalBackwardInto(dst *confnode.Set, dirty []string, mutated, sys *confnode.Set) (*confnode.Set, error) {
	out := sys.TrackedInto(dst, mutated.Arena())
	for _, file := range dirty {
		if file != v.File {
			// Files a scenario added beside the data file have no tinydns
			// equivalent; the full Backward ignores them too.
			continue
		}
		viewDoc := mutated.Get(v.File)
		if viewDoc == nil {
			return nil, fmt.Errorf("tinydns view: mutated set lost file %q: %w", v.File, view.ErrNotExpressible)
		}
		if err := backwardTinyFile(out, v.File, viewDoc); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// backwardTinyFile folds the mutated record view back onto the tinydns
// data file inside out (fetching the system document through out.Get,
// which on a tracked set materializes a private clone).
func backwardTinyFile(out *confnode.Set, file string, viewDoc *confnode.Node) error {
	sysDoc := out.Get(file)

	type keyed struct {
		node *confnode.Node
		key  string
	}
	var originals []keyed
	for _, n := range sysDoc.ChildrenByKind(confnode.KindRecord) {
		originals = append(originals, keyed{node: n, key: template.RefOf(file, n).String()})
	}
	bySrc := make(map[string]map[string]*confnode.Node)
	var inserts []*confnode.Node
	for _, n := range viewDoc.ChildrenByKind(confnode.KindRecord) {
		src, ok := n.Attr(view.SrcAttr)
		if !ok {
			inserts = append(inserts, n)
			continue
		}
		part := n.AttrDefault(AttrPart, "")
		if bySrc[src] == nil {
			bySrc[src] = make(map[string]*confnode.Node)
		}
		bySrc[src][part] = n
	}

	for _, o := range originals {
		parts := bySrc[o.key]
		if err := writeTinyLine(o.node, parts); err != nil {
			return err
		}
	}
	for _, vn := range inserts {
		line, err := tinyLineFor(nodeRecord(vn))
		if err != nil {
			return err
		}
		sysDoc.Append(line)
	}
	return nil
}

// writeTinyLine folds the surviving view parts back onto one tinydns data
// line, detecting inexpressible states.
func writeTinyLine(n *confnode.Node, parts map[string]*confnode.Node) error {
	fields := strings.Split(n.Value, ":")
	set := func(i int, v string) {
		for len(fields) <= i {
			fields = append(fields, "")
		}
		fields[i] = v
	}
	finish := func() {
		n.Value = strings.Join(fields, ":")
	}
	// expect verifies that a surviving part still has the record type its
	// directive encodes; a type change (e.g. an A rewritten into a CNAME)
	// has no equivalent line form.
	expect := func(vn *confnode.Node, typ string) error {
		if got := vn.AttrDefault(AttrType, ""); got != typ {
			return fmt.Errorf("tinydns '%s' for %q: part changed type %s -> %s: %w",
				n.Name, fields[0], typ, got, view.ErrNotExpressible)
		}
		return nil
	}
	switch n.Name {
	case "=":
		a, aok := parts["a"]
		ptr, pok := parts["ptr"]
		if !aok && !pok {
			n.Remove()
			return nil
		}
		if !aok || !pok {
			return fmt.Errorf("tinydns '=' for %q: cannot express A without its PTR (or vice versa): %w",
				fields[0], view.ErrNotExpressible)
		}
		if err := expect(a, "A"); err != nil {
			return err
		}
		if err := expect(ptr, "PTR"); err != nil {
			return err
		}
		arec, prec := nodeRecord(a), nodeRecord(ptr)
		rev, err := dnswire.ReverseName(arec.Data)
		if err != nil {
			return fmt.Errorf("tinydns '=': bad address %q: %w", arec.Data, view.ErrNotExpressible)
		}
		if prec.Owner != Canon(rev) || prec.Data != arec.Owner {
			return fmt.Errorf("tinydns '=' for %q: A and PTR no longer consistent: %w",
				fields[0], view.ErrNotExpressible)
		}
		set(0, arec.Owner)
		set(1, arec.Data)
		finish()
		return nil
	case "+":
		return singlePart(n, parts, "a", "A", expect, func(rec Record) {
			set(0, rec.Owner)
			set(1, rec.Data)
			finish()
		})
	case "^":
		return singlePart(n, parts, "ptr", "PTR", expect, func(rec Record) {
			set(0, rec.Owner)
			set(1, rec.Data)
			finish()
		})
	case "C":
		return singlePart(n, parts, "cname", "CNAME", expect, func(rec Record) {
			set(0, rec.Owner)
			set(1, rec.Data)
			finish()
		})
	case "'":
		return singlePart(n, parts, "txt", "TXT", expect, func(rec Record) {
			set(0, rec.Owner)
			set(1, rec.Data)
			finish()
		})
	case "@":
		return singlePart(n, parts, "mx", "MX", expect, func(rec Record) {
			f := strings.Fields(rec.Data)
			set(0, rec.Owner)
			if len(f) == 2 {
				set(2, f[1])
				set(3, f[0])
			}
			finish()
		})
	case "&":
		return singlePart(n, parts, "ns", "NS", expect, func(rec Record) {
			set(0, rec.Owner)
			set(2, rec.Data)
			finish()
		})
	case ".":
		ns, nok := parts["ns"]
		soa, sok := parts["soa"]
		if !nok && !sok {
			n.Remove()
			return nil
		}
		if !nok || !sok {
			return fmt.Errorf("tinydns '.' for %q: cannot express NS without its SOA (or vice versa): %w",
				fields[0], view.ErrNotExpressible)
		}
		nsRec, soaRec := nodeRecord(ns), nodeRecord(soa)
		soaFields := strings.Fields(soaRec.Data)
		if len(soaFields) != 7 || soaFields[0] != nsRec.Data {
			return fmt.Errorf("tinydns '.' for %q: SOA mname diverged from NS target: %w",
				fields[0], view.ErrNotExpressible)
		}
		set(0, nsRec.Owner)
		set(2, nsRec.Data)
		finish()
		return nil
	case "Z":
		return singlePart(n, parts, "soa", "SOA", expect, func(rec Record) {
			f := strings.Fields(rec.Data)
			if len(f) == 7 {
				set(0, rec.Owner)
				set(1, f[0])
				set(2, f[1])
				for i, num := range f[2:] {
					set(3+i, num)
				}
			}
			finish()
		})
	default:
		return fmt.Errorf("tinydns: unknown directive %q: %w", n.Name, view.ErrNotExpressible)
	}
}

// singlePart handles directives that expand to exactly one record.
func singlePart(n *confnode.Node, parts map[string]*confnode.Node, part, typ string,
	expect func(*confnode.Node, string) error, write func(Record)) error {
	vn, ok := parts[part]
	if !ok {
		n.Remove()
		return nil
	}
	if err := expect(vn, typ); err != nil {
		return err
	}
	write(nodeRecord(vn))
	return nil
}

// tinyLineFor synthesizes a data line for a record inserted by a fault
// scenario.
func tinyLineFor(rec Record) (*confnode.Node, error) {
	ttl := strconv.FormatUint(uint64(rec.TTL), 10)
	var c, value string
	switch rec.Type {
	case "A":
		c, value = "+", rec.Owner+":"+rec.Data+":"+ttl
	case "PTR":
		c, value = "^", rec.Owner+":"+rec.Data+":"+ttl
	case "CNAME":
		c, value = "C", rec.Owner+":"+rec.Data+":"+ttl
	case "TXT":
		c, value = "'", rec.Owner+":"+rec.Data+":"+ttl
	case "NS":
		c, value = "&", rec.Owner+"::"+rec.Data+":"+ttl
	case "MX":
		f := strings.Fields(rec.Data)
		if len(f) != 2 {
			return nil, fmt.Errorf("tinydns: bad MX data %q: %w", rec.Data, view.ErrNotExpressible)
		}
		c, value = "@", rec.Owner+"::"+f[1]+":"+f[0]+":"+ttl
	case "SOA":
		f := strings.Fields(rec.Data)
		if len(f) != 7 {
			return nil, fmt.Errorf("tinydns: bad SOA data %q: %w", rec.Data, view.ErrNotExpressible)
		}
		c, value = "Z", rec.Owner+":"+f[0]+":"+f[1]+":"+strings.Join(f[2:], ":")+":"+ttl
	default:
		return nil, fmt.Errorf("tinydns: record type %s not expressible: %w", rec.Type, view.ErrNotExpressible)
	}
	return confnode.NewValued(confnode.KindRecord, c, value), nil
}
