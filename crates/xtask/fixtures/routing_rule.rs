// Fixture: a value routed to a partition by hand, outside `home_partition`.

fn partition_of(v: &Value, parts: u32) -> u32 {
    match v {
        // A comment naming unsigned_abs() % parts is not code.
        Value::Int(i) => (i.unsigned_abs() % u64::from(parts)) as u32,
        other => (other.stable_hash() % u64::from(parts)) as u32,
    }
}

#[cfg(test)]
mod tests {
    fn expected(i: i64, parts: u32) -> u32 {
        (i.unsigned_abs() % u64::from(parts)) as u32
    }
}
