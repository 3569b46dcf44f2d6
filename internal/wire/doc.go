// Package wire reads the serving tier's JSON request bodies in one
// pass. A Reader walks a body from its first byte to its last and
// reads plain strings, numbers and the objects and arrays around them
// straight into the caller's request struct; any other value is
// skipped but still checked against the JSON grammar. Numbers are
// parsed with strconv on the JSON number literal, as encoding/json
// parses them, so every value is bit-identical to json.Unmarshal's.
//
// The reader handles only the common shape of a body and declines the
// rest: escaped or non-ASCII strings, a key that repeats or that
// matches a field name only up to case, null, a number that does not
// fit its field, bytes after the top-level value, nesting past
// maxDepth and any syntax error. Decode then resets the struct and
// hands the body to json.Unmarshal, so a declined body gets exactly
// the standard library's value or error. The invariant the fuzz
// targets in internal/serve and internal/cluster check is: whenever
// the reader accepts a body, json.Unmarshal accepts it too and gives
// the same value bit for bit.
//
// internal/serve decodes its request bodies with it, and
// internal/cluster reads the routing key of a forwarded body without
// decoding the rest. Both hops also take their body cap, MaxBodyBytes,
// and the text of the 413 past it, TooLarge, from here.
package wire
