package analysis

import (
	"fmt"
	"strings"
)

// This file is the machine-readable form of the "Lock hierarchy" comment
// on core.GlobalHeap (internal/core/global.go). The lockorder pass
// enforces it; TestLockSpecMatchesComment fails if the comment and this
// spec ever disagree. When the hierarchy changes, update both.

// LockRank orders the hierarchy from outermost (lowest rank) to innermost
// (highest). A goroutine may acquire a lock only if every hierarchy lock
// it already holds has a strictly lower rank.
type LockRank int

// The ranks of the allocator's hierarchy, outermost first.
const (
	RankMeshBarrier LockRank = 1 + iota
	RankShard
	RankLargeMu
	RankLeaf
)

// Level is one entry of the hierarchy comment: a rank and the name the
// comment lists it under. Two locks may share a level (the arena and vm
// leaves); same-level locks must never nest.
type Level struct {
	Rank LockRank
	Name string
}

// LockID identifies one mutex in the hierarchy by the defining named type
// and field. Type is the fully qualified type name ("repro/internal/core.GlobalHeap");
// Name is the short form diagnostics use.
type LockID struct {
	Type  string
	Field string
	Rank  LockRank
	Name  string
}

// Acquirer maps a wrapper function (by types.Func.FullName) to the
// hierarchy lock it acquires or releases, so methods like
// (*classState).lock count as acquisitions of classState.mu.
type Acquirer struct {
	Func    string // e.g. "(*repro/internal/core.classState).lock"
	Lock    string // LockID.Name it acquires/releases
	Release bool
}

// LockSpec is the full hierarchy: the ordered levels, the concrete locks
// at each level, acquire/release wrapper functions, and the functions
// that must only ever be entered with no hierarchy lock held (the drain
// and mesh entry points).
type LockSpec struct {
	Levels     []Level
	Locks      []LockID
	Acquirers  []Acquirer
	NoLockHeld map[string]string // FullName → why it must run lock-free
}

// Default returns the allocator's lock hierarchy, mirroring the
// "Lock hierarchy" comment in internal/core/global.go entry for entry.
func Default() *LockSpec {
	const core = "repro/internal/core"
	return &LockSpec{
		Levels: []Level{
			{RankMeshBarrier, "meshBarrier"},
			{RankShard, "classes[c].mu"},
			{RankLargeMu, "largeMu"},
			{RankLeaf, "arena/vm internals"},
		},
		Locks: []LockID{
			{core + ".GlobalHeap", "meshBarrier", RankMeshBarrier, "GlobalHeap.meshBarrier"},
			{core + ".classState", "mu", RankShard, "classState.mu"},
			{core + ".GlobalHeap", "largeMu", RankLargeMu, "GlobalHeap.largeMu"},
			{"repro/internal/arena.Arena", "mu", RankLeaf, "Arena.mu"},
			{"repro/internal/vm.OS", "mu", RankLeaf, "OS.mu"},
		},
		Acquirers: []Acquirer{
			{Func: "(*" + core + ".classState).lock", Lock: "classState.mu"},
			{Func: "(*" + core + ".classState).unlock", Lock: "classState.mu", Release: true},
		},
		NoLockHeld: map[string]string{
			"(*" + core + ".ThreadHeap).DrainRemoteFrees": "drain points re-enter the hierarchy (shard locks, maybeMesh)",
			"(*" + core + ".ThreadHeap).drainRemote":      "drain points re-enter the hierarchy (shard locks, maybeMesh)",
			"(*" + core + ".GlobalHeap).maybeMesh":        "the mesh trigger may take the barrier and every lock below it",
			"(*" + core + ".GlobalHeap).Mesh":             "a pass takes the barrier and every lock below it",
			"(*" + core + ".GlobalHeap).MeshBackground":   "a pass takes the barrier and every lock below it",
		},
	}
}

// FieldLock resolves a (type, field) pair to its hierarchy lock.
func (s *LockSpec) FieldLock(typeName, field string) (LockID, bool) {
	for _, l := range s.Locks {
		if l.Type == typeName && l.Field == field {
			return l, true
		}
	}
	return LockID{}, false
}

// LockByName resolves a LockID.Name.
func (s *LockSpec) LockByName(name string) (LockID, bool) {
	for _, l := range s.Locks {
		if l.Name == name {
			return l, true
		}
	}
	return LockID{}, false
}

// AcquirerFor resolves a function full name to the lock it acquires or
// releases.
func (s *LockSpec) AcquirerFor(fullName string) (LockID, bool, bool) {
	for _, a := range s.Acquirers {
		if a.Func == fullName {
			l, ok := s.LockByName(a.Lock)
			return l, a.Release, ok
		}
	}
	return LockID{}, false, false
}

// LevelNames returns the hierarchy's level names outermost-first, exactly
// as the global.go comment lists them.
func (s *LockSpec) LevelNames() []string {
	out := make([]string, len(s.Levels))
	for i, l := range s.Levels {
		out[i] = l.Name
	}
	return out
}

// Edges returns the outer→inner edge set implied by the level order:
// one edge per consecutive pair of levels.
func (s *LockSpec) Edges() [][2]string {
	var out [][2]string
	for i := 0; i+1 < len(s.Levels); i++ {
		out = append(out, [2]string{s.Levels[i].Name, s.Levels[i+1].Name})
	}
	return out
}

// ParseHierarchyComment extracts the ordered level names from the source
// text of internal/core/global.go. The entries are the comment lines of
// the form
//
//	//\t<name>   — <description>
//
// following the "# Lock hierarchy" heading; continuation lines (tab then
// spaces) and prose paragraphs are skipped, and scanning stops at the end
// of that comment block.
func ParseHierarchyComment(src string) ([]string, error) {
	lines := strings.Split(src, "\n")
	start := -1
	for i, ln := range lines {
		if strings.Contains(ln, "# Lock hierarchy") {
			start = i
			break
		}
	}
	if start < 0 {
		return nil, fmt.Errorf("lockspec: no \"# Lock hierarchy\" heading found")
	}
	var names []string
	for _, ln := range lines[start+1:] {
		trimmed := strings.TrimLeft(ln, " \t")
		body, ok := strings.CutPrefix(trimmed, "//")
		if !ok {
			break // end of the doc comment block
		}
		body, ok = strings.CutPrefix(body, "\t")
		if !ok || body == "" || body[0] == ' ' || body[0] == '\t' {
			continue // prose line or entry continuation
		}
		name, _, ok := strings.Cut(body, "—")
		if !ok {
			continue
		}
		names = append(names, strings.TrimRight(name, " \t"))
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lockspec: hierarchy heading present but no entries parsed")
	}
	return names, nil
}
