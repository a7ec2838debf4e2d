package cli

import (
	"flag"
	"fmt"
	"time"
)

// NonNegative rejects a negative value in any of the named count, rate
// or duration flags of fs, returning an ErrUsage error that names the
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
			return fmt.Errorf("%w: -%s must not be negative (got %s)", ErrUsage, name, f.Value)
		}
	}
	return nil
}
