package cli

import (
	"flag"
	"time"
)

// NonNegative rejects a negative value in any of the named count, rate
// or duration flags of fs, returning a usage error that names the
// first offending flag. Zero passes; most such flags read it as "use
// the default".
func NonNegative(fs *flag.FlagSet, names ...string) error {
	for _, name := range names {
		f := fs.Lookup(name)
		var neg bool
		switch v := f.Value.(flag.Getter).Get().(type) {
		case int:
			neg = v < 0
		case int64:
			neg = v < 0
		case float64:
			neg = v < 0
		case time.Duration:
			neg = v < 0
		}
		if neg {
			return Usagef("-%s must not be negative (got %s)", name, f.Value)
		}
	}
	return nil
}
