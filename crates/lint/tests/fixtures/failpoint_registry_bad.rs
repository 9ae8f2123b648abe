// Fixture: `REPROBE` reuses the string of `PROBE`, and a call site
// passes a raw site name instead of a const.

idf_fail::sites! {
    PROBE = "fx::probe",
    REPROBE = "fx::probe",
}

fn read() -> Result<(), String> {
    idf_fail::eval("fx::probe")
}
