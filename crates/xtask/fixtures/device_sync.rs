// Fixture: an fsync on a serving path, outside the command log and the
// snapshot writer.

fn serve(file: &File) {
    file.sync_data().expect("sync");
    // A comment naming sync_all() is not a call.
}

#[cfg(test)]
mod tests {
    fn make_durable(file: &File) {
        file.sync_all().unwrap();
    }
}
