package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
)

// FsyncDiscipline enforces the durability discipline of the storage
// layer: data must be fsynced before it is renamed into place, and the
// crash-consistency-critical zones must do ALL file I/O through the
// vfs seam so the crash sweep (internal/store/crashtest) actually
// exercises every operation they perform. Concretely, in non-test code
// it flags
//
//   - an os.Rename call with no preceding (*os.File).Sync call in the
//     same function — the rename can surface a file whose contents were
//     never flushed, which is exactly the torn-bundle crash the
//     fault-injection tests exist to prevent;
//   - any direct os file-I/O call (open/create/read/write/rename/
//     remove/readdir/stat/...) inside the package store or inside
//     internal/panel's watcher.go — those zones are model-checked by
//     replaying their vfs op traces, so an os call there is invisible
//     to the checker and silently exempt from crash testing. Route it
//     through a vfs.FS.
//
// The vfs package itself is the seam's production passthrough and is
// exempt. Renames that are deliberately non-durable (e.g. quarantine
// paths made idempotent by log replay) belong in the allowlist
// with their justification.
var FsyncDiscipline = &Analyzer{
	Name: "fsyncdiscipline",
	Doc:  "os.Rename requires a prior File.Sync in the same function; store and the spool watcher must route all file I/O through the vfs seam",
	Run:  runFsyncDiscipline,
}

// osFileIO is every os entry point that touches the filesystem. Inside
// the seam-routed zones each one must go through vfs.FS instead.
var osFileIO = map[string]bool{
	"Open": true, "OpenFile": true, "Create": true, "CreateTemp": true,
	"ReadFile": true, "WriteFile": true, "Rename": true, "Remove": true,
	"RemoveAll": true, "ReadDir": true, "Stat": true, "Lstat": true,
	"Truncate": true, "Mkdir": true, "MkdirAll": true, "MkdirTemp": true,
	"Chmod": true, "Chtimes": true, "Link": true, "Symlink": true,
}

func runFsyncDiscipline(pass *Pass) {
	if pass.Pkg.ForTest || pass.Pkg.Name == "vfs" {
		// The vfs package is the seam itself: its production
		// passthrough is the one place allowed to call os directly.
		return
	}
	info := pass.Pkg.Info
	for _, fb := range funcBodies(pass.Pkg) {
		if pass.Pkg.IsTestFile(fb.File) {
			continue
		}
		fb := fb
		sealed := seamZone(pass.Pkg, fb.File)
		ast.Inspect(fb.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			obj := calleeOf(info, call)
			fn, isOsIO := osFileIOCall(obj)
			switch {
			case sealed && isOsIO:
				pass.Reportf(call.Pos(), "os.%s in %s bypasses the vfs seam; the crash sweep cannot see this operation — take a vfs.FS and call it instead", fn, fb.Name)
			case stdlibFunc(obj, "os", "Rename"):
				if !syncBefore(pass, fb, call) {
					pass.Reportf(call.Pos(), "os.Rename in %s without a preceding File.Sync; an unflushed rename can surface torn data after a crash — fsync first or use store.WriteAtomic", fb.Name)
				}
			}
			return true
		})
	}
}

// seamZone reports whether the i'th file of pkg must do all file I/O
// through the vfs seam: the whole store package, and the spool watcher
// inside the panel package.
func seamZone(pkg *Package, file int) bool {
	switch pkg.Name {
	case "store":
		return true
	case "panel":
		return filepath.Base(pkg.FileNames[file]) == "watcher.go"
	}
	return false
}

// osFileIOCall reports whether obj is one of the os package's
// filesystem entry points, returning its name.
func osFileIOCall(obj types.Object) (string, bool) {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "os" {
		return "", false
	}
	if osFileIO[fn.Name()] {
		return fn.Name(), true
	}
	return "", false
}

// syncBefore reports whether a Sync() call on an *os.File (or a call
// into a helper of the store package, which is trusted to sync) occurs
// lexically before call within the function body.
func syncBefore(pass *Pass, fb funcBody, call *ast.CallExpr) bool {
	found := false
	ast.Inspect(fb.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		c, ok := n.(*ast.CallExpr)
		if !ok || c.Pos() >= call.Pos() {
			return true
		}
		if sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Sync" {
			if t := pass.TypeOf(sel.X); t != nil && namedTypePath(t, "os", "File") {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
