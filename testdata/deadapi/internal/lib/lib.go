package lib

// Namer is an interface the program names.
type Namer interface{ Name() string }

// Used has a caller in the root package.
func Used(n Namer) string { return n.Name() }

// Stale has a caller but is on the checker test's allowlist.
func Stale() string { return "stale" }

// Dead has no caller.
func Dead() {}

// Orphan is mentioned only by its own method.
type Orphan struct{}

// String lets Orphan satisfy fmt.Stringer.
func (Orphan) String() string { return "orphan" }

// Label satisfies Namer through Name.
type Label string

// Name has no direct caller; Label satisfies Namer through it.
func (l Label) Name() string { return string(l) }

// Widget is reachable from the root package through an alias.
type Widget struct{}

// Size has no caller; the root package's alias makes it public.
func (Widget) Size() int { return 0 }
