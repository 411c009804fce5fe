use geodabs_cli::{commands, Args};
use std::io::{self, Write};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&argv).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        eprint!("{}", commands::usage(commands::lookup(&argv)));
        std::process::exit(2);
    });
    let mut stdout = Stdout {
        inner: io::stdout(),
        closed: false,
    };
    // A reader that went away (`geodabs … | head -1`) has all it wanted:
    // the command ends quietly, not as a failure.
    if let Err(e) = commands::run(&args, &mut stdout) {
        if !stdout.closed {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// Stdout that remembers a write finding its reader gone, so that only a
/// closed stdout, not the same error from a socket or a file, ends a
/// command quietly.
struct Stdout {
    inner: io::Stdout,
    closed: bool,
}

impl Stdout {
    fn note<T>(&mut self, result: io::Result<T>) -> io::Result<T> {
        self.closed |= matches!(&result, Err(e) if e.kind() == io::ErrorKind::BrokenPipe);
        result
    }
}

impl Write for Stdout {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let result = self.inner.write(buf);
        self.note(result)
    }

    fn flush(&mut self) -> io::Result<()> {
        let result = self.inner.flush();
        self.note(result)
    }
}
