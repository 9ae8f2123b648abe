// Fixture: the same two violations, each silenced with an inline allow.

idf_fail::sites! {
    PROBE = "fx::probe",
    // idf-lint: allow(failpoint-registry) -- fixture: alias kept for one release
    REPROBE = "fx::probe",
}

fn read() -> Result<(), String> {
    // idf-lint: allow(failpoint-registry) -- fixture: bootstrap path predates the const
    idf_fail::eval("fx::probe")
}
