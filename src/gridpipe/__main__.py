from .cli import main

if __name__ == "__main__":  # not when merely imported
    raise SystemExit(main())
