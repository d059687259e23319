package runner

// EncodeRows is encodeRows for the external tests, which re-encode
// decoded rows and build blobs of other row counts and schemas with it.
func EncodeRows[T any](rows []T) ([]byte, error) { return encodeRows(rows) }
