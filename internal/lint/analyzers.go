package lint

import (
	"fmt"
	"sort"
	"strings"
)

// All returns every analyzer in the suite, in stable name order.
func All() []*Analyzer {
	as := []*Analyzer{
		AtomicHygiene,
		CtxPropagation,
		ErrWrap,
		FsyncDiscipline,
		GoroLeak,
		LockOrder,
		LockScope,
		MapDeterminism,
		RegistryHygiene,
		SnapshotImmutability,
	}
	sort.Slice(as, func(i, j int) bool { return as[i].Name < as[j].Name })
	return as
}

// Select applies -enable/-disable comma lists to the full suite:
// enable narrows to exactly the named analyzers, disable removes names,
// and unknown names are an error so typos don't silently skip checks.
func Select(enable, disable string) ([]*Analyzer, error) {
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	resolve := func(list string) ([]*Analyzer, error) {
		var out []*Analyzer
		for _, name := range strings.Split(list, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			a, ok := byName[name]
			if !ok {
				return nil, fmt.Errorf("lint: unknown analyzer %q (have %s)", name, analyzerNames())
			}
			out = append(out, a)
		}
		return out, nil
	}
	selected := All()
	if enable != "" {
		var err error
		if selected, err = resolve(enable); err != nil {
			return nil, err
		}
	}
	if disable != "" {
		drop, err := resolve(disable)
		if err != nil {
			return nil, err
		}
		dropSet := make(map[string]bool)
		for _, a := range drop {
			dropSet[a.Name] = true
		}
		var kept []*Analyzer
		for _, a := range selected {
			if !dropSet[a.Name] {
				kept = append(kept, a)
			}
		}
		selected = kept
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("lint: no analyzers selected")
	}
	return selected, nil
}

func analyzerNames() string {
	var names []string
	for _, a := range All() {
		names = append(names, a.Name)
	}
	return strings.Join(names, ", ")
}
