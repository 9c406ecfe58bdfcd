val exposed : int
